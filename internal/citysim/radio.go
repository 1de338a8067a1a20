// radio.go — reception evaluation and carrier sense. Both execution modes
// share every gate after sensitivity; the serial full scan recomputes links
// to every station, the sharded mode reads the sender's slab for its
// receivers and each interferer's slab for the receivers it captures,
// looking those up by slot in the shard's candidate index.
//
// Cross-mode exactness relies on the radio-relevance bound: a node outside
// the sender's 3x3 cell neighborhood is farther than one cell side, so its
// base path loss exceeds maxLossRel and even a -2 sigma shadowing draw
// leaves the link above every threshold used below (delivery, carrier
// sense, the interferer floor). The sharded mode may therefore skip such
// nodes in bulk and the serial mode reject them individually — same
// outcome, same loss bucket.

package citysim

import "math"

// evaluateTx hands tx to every receiver this shard owns that hears it.
// Fired at tx.endNs + W, when every transmission that can overlap tx has
// crossed a barrier — the interferer set is exact.
func (sh *shard) evaluateTx(tx txRec) {
	for _, r := range sh.hear(&tx) {
		switch tx.kind {
		case kindHello:
			sh.onHello(r, &tx)
		case kindData:
			if tx.dst == r {
				sh.onData(r, &tx)
			}
		case kindSolicit:
			sh.onSolicit(r, &tx)
		case kindInterest:
			sh.onInterest(r, &tx)
		case kindNamedData:
			if tx.dst == r {
				sh.onNamedData(r, &tx)
			}
		}
	}
}

// hear decides tx at every receiver this shard owns, books each loss, and
// returns who heard it, in slot order (shard scratch). No verdict reads
// state a handler writes, so deciding all before dispatching any changes
// nothing.
func (sh *shard) hear(tx *txRec) []int32 {
	s := sh.sim
	sh.heard = sh.heard[:0]
	if s.fullScan {
		for r := int32(0); r < int32(s.r.Nodes); r++ {
			if r == tx.sender {
				continue
			}
			loss := s.linkLoss(r, tx.sender)
			if loss > s.r.maxLossDel {
				sh.stats.LostBelowSensitivity++
				continue
			}
			sh.receive(r, tx, !sh.clearOfInterference(r, tx, s.r.eirpDBm-loss, sh.flightAll))
		}
		return sh.heard
	}
	// The sender's slab lists its receivers; linkLoss is symmetric.
	ns := &s.nodes
	scell := ns.cell[tx.sender]
	m := s.r.margins()
	sh.cands = sh.cands[:0]
	inRange := 0
	lo, hi := ns.nbrOff[tx.sender], ns.nbrOff[tx.sender+1]
	deltas, codes := ns.nbrDelta[lo:hi], ns.nbrLoss[lo:hi]
	deltas = deltas[:len(codes)]
	sh.counts.hearWalks++
	sh.counts.hearLinks += uint64(len(codes))
	for k, q := range codes {
		r, loss := tx.sender+int32(deltas[k]), s.r.codeLoss(q)
		switch m.delivers(loss) {
		case no:
			continue
		case exact:
			sh.counts.exactHear++
			if loss = s.linkLoss(tx.sender, r); loss > s.r.maxLossDel {
				continue
			}
		}
		inRange++
		if sh.owns(r) {
			sh.candOf[r-sh.lo] = int32(len(sh.cands))
			sh.cands = append(sh.cands, candidate{r: r, rssi: s.r.eirpDBm - loss})
		}
	}
	if sh.owns(tx.sender) { // the rest, booked once, by the sender's owner
		sh.stats.LostBelowSensitivity += uint64(s.r.Nodes - 1 - inRange)
	}
	if len(sh.cands) == 0 {
		return sh.heard
	}
	sh.capture(&m, scell, tx)
	for _, c := range sh.cands {
		sh.candOf[c.r-sh.lo] = -1
		sh.receive(c.r, tx, c.captured)
	}
	return sh.heard
}

// workCounts are what sharded reception and carrier sense walk and
// recompute on one shard: the sender slabs hear walks and the links they
// list, the interferer slabs markCaptured walks, and the linkLoss
// recomputes a code left open in hear, in capture and in
// inDeliveryRange. Not digest material and not in Stats; TestWorkPerFrame
// pins them per frame.
type workCounts struct {
	hearWalks, hearLinks, captureWalks  uint64
	exactHear, exactCapture, exactSense uint64
}

// candidate is a receiver in delivery range of the frame being decided.
type candidate struct {
	r        int32
	captured bool    // by some interferer
	rssi     float64 // the frame's, at r, within lossErr
}

// A verdict is what a link's code settles about a comparison the float64
// code makes on linkLoss: no, yes, or exact, when the code's loss lies too
// near the threshold and only linkLoss can decide.
type verdict uint8

const (
	no verdict = iota
	yes
	exact
)

// margins are the thresholds of the slab decisions, each widened both ways
// by the error it must absorb (buildLinks proves the bound): lossErr for a
// loss or an RSSI, 2·lossErr for the difference of two RSSIs.
type margins struct {
	delLo, delHi     float64 // maxLossDel
	floorLo, floorHi float64 // the interferer floor, noise − 10 dB
	thLo, thHi       float64 // captureThDB
}

func (r *resolved) margins() margins {
	e, floor := r.lossErr, r.noiseDBm-10
	return margins{
		delLo: r.maxLossDel - e, delHi: r.maxLossDel + e,
		floorLo: floor - e, floorHi: floor + e,
		thLo: r.captureThDB - 2*e, thHi: r.captureThDB + 2*e,
	}
}

// lossCode returns the code of a loss between the least and the greatest
// a slab lists.
func (r *resolved) lossCode(loss float64) uint16 {
	if r.lossStep == 0 {
		return 0
	}
	return uint16(math.Round((loss - r.lossLo) / r.lossStep))
}

// codeLoss returns the loss a code stands for.
func (r *resolved) codeLoss(q uint16) float64 { return r.lossLo + float64(q)*r.lossStep }

// delivers decides linkLoss <= maxLossDel from the loss a link's code
// stands for: for hear's receivers and carrier sense alike.
func (m *margins) delivers(loss float64) verdict {
	switch {
	case loss > m.delHi:
		return no
	case loss <= m.delLo:
		return yes
	}
	return exact
}

// captures decides resolved.captured from a candidate's rssi and an
// interferer's irssi, both taken from codes.
func (m *margins) captures(rssi, irssi float64) verdict {
	switch d := rssi - irssi; {
	case irssi < m.floorLo || d >= m.thHi:
		return no
	case irssi >= m.floorHi && d < m.thLo:
		return yes
	}
	return exact
}

// captured is the capture test both modes share: an interferer heard at
// irssi, above the relevance floor, captures a frame heard at rssi unless
// the frame is captureThDB stronger.
func (r *resolved) captured(rssi, irssi float64) bool {
	return irssi >= r.noiseDBm-10 && rssi-irssi < r.captureThDB
}

// capture is clearOfInterference for every candidate at once: it visits
// each in-flight record in the sender's 5x5 cell block that overlaps tx and
// is not the sender's, and lets markCaptured mark the candidates it
// captures. The block holds every candidate's 3x3, and the verdict is an
// OR over (candidate, interferer) pairs, so visit order does not matter.
// The caller fills candOf for the candidates before and clears it after.
func (sh *shard) capture(m *margins, scell int32, tx *txRec) {
	g := &sh.sim.grid
	col, row := g.ColRow(int(scell))
	cols := g.Cols()
	for r := max(row-2, 0); r <= min(row+2, g.Rows()-1); r++ {
		for c := max(col-2, 0); c <= min(col+2, cols-1); c++ {
			for _, rec := range sh.cellTx[r*cols+c] {
				if rec.sender != tx.sender && rec.endNs > tx.startNs && rec.startNs < tx.endNs {
					sh.markCaptured(m, rec.sender, tx.sender)
				}
			}
		}
	}
}

// markCaptured marks the candidates interferer i captures in one pass over
// i's slab, finding the candidate of each listed node in the stripe
// through candOf. Slabs are symmetric and never list their own node, so a
// hit is exactly the pair (r, i), and a receiver's own transmission never
// captures it. A test the codes leave open is decided on the exact
// losses of both links, sender's and i's.
func (sh *shard) markCaptured(m *margins, i, sender int32) {
	s := sh.sim
	sh.counts.captureWalks++
	lo, hi := s.nodes.nbrOff[i], s.nodes.nbrOff[i+1]
	deltas, codes := s.nodes.nbrDelta[lo:hi], s.nodes.nbrLoss[lo:hi]
	// Locals, so the stores below cannot make the loop reload them.
	base, candOf, cands, eirp := i-sh.lo, sh.candOf, sh.cands, s.r.eirpDBm
	for k, d := range deltas {
		if at := uint(base + int32(d)); at < uint(len(candOf)) && candOf[at] >= 0 {
			c := &cands[candOf[at]]
			switch m.captures(c.rssi, eirp-s.r.codeLoss(codes[k])) {
			case yes:
				c.captured = true
			case exact:
				if !c.captured {
					sh.counts.exactCapture++
					n := i + int32(d)
					c.captured = s.r.captured(eirp-s.linkLoss(sender, n), eirp-s.linkLoss(i, n))
				}
			}
		}
	}
}

// receive applies the gates after sensitivity to receiver r in contract
// order: half-duplex, interference (captured is its verdict), erasure.
func (sh *shard) receive(r int32, tx *txRec, captured bool) {
	s := sh.sim
	if s.nodes.transmittedDuring(r, tx.startNs, tx.endNs) {
		sh.stats.LostHalfDuplex++
		return
	}
	if captured {
		sh.stats.LostCollision++
		return
	}
	if rate := s.r.ExtraFrameLossRate; rate > 0 &&
		hash01(s.hash(purposeErasure, uint64(s.nodes.id[tx.sender]), uint64(tx.seq), uint64(s.nodes.id[r]))) < rate {
		sh.stats.LostRandom++
		return
	}
	sh.stats.FramesDelivered++
	sh.heard = append(sh.heard, r)
}

// clearOfInterference reports whether the frame survives every concurrent
// transmission in recs at receiver r under the capture model; capture does
// the same for every receiver at once. Interferers weaker than 10 dB below
// the noise floor are ignored in both modes (the uniform relevance floor
// that makes cell pruning exact). The verdict is an AND over recs.
func (sh *shard) clearOfInterference(r int32, tx *txRec, rssiDBm float64, recs []airRec) bool {
	s := sh.sim
	for i := range recs {
		rec := &recs[i]
		if rec.sender == tx.sender || rec.sender == r {
			continue // own frame; own transmissions are half-duplex's job
		}
		if rec.endNs <= tx.startNs || rec.startNs >= tx.endNs {
			continue // no overlap
		}
		il := s.linkLoss(r, rec.sender)
		if il <= s.r.maxLossRel && s.r.captured(rssiDBm, s.r.eirpDBm-il) {
			return false
		}
	}
	return true
}

// channelBusy is the CSMA listen: node i senses energy from any
// transmission within delivery range that started before the current
// window and is still on the air. Window quantization (startNs <
// winStartNs) is applied in both modes so carrier sense never depends on
// same-window cross-shard traffic that hasn't crossed a barrier yet.
func (sh *shard) channelBusy(i int32, nowNs int64) bool {
	s := sh.sim
	sense := func(recs []airRec) bool {
		for _, rec := range recs {
			if rec.sender == i || rec.startNs >= sh.winStartNs || rec.endNs <= nowNs {
				continue
			}
			if sh.inDeliveryRange(i, rec.sender) {
				return true
			}
		}
		return false
	}
	if s.fullScan {
		return sense(sh.flightAll)
	}
	busy := false
	s.grid.ForNeighbors(int(s.nodes.cell[i]), func(c int) { busy = busy || sense(sh.cellTx[c]) })
	return busy
}
