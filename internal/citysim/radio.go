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
			loss, ok := s.lossBetween(r, tx.sender)
			if !ok || loss > s.r.maxLossDel {
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
	sh.cands = sh.cands[:0]
	inRange := 0
	for k := ns.nbrOff[tx.sender]; k < ns.nbrOff[tx.sender+1]; k++ {
		loss := ns.nbrLoss[k]
		if loss > s.r.maxLossDel {
			continue
		}
		inRange++
		if r := ns.nbrSlot[k]; sh.owns(r) {
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
	sh.capture(scell, tx)
	for _, c := range sh.cands {
		sh.candOf[c.r-sh.lo] = -1
		sh.receive(c.r, tx, c.captured)
	}
	return sh.heard
}

// candidate is a receiver in delivery range of the frame being decided.
type candidate struct {
	r        int32
	captured bool    // by some interferer
	rssi     float64 // the frame's, at r
}

// capture is clearOfInterference for every candidate at once: it visits
// each in-flight record in the sender's 5x5 cell block that overlaps tx and
// is not the sender's, and lets markCaptured mark the candidates it
// captures. The block holds every candidate's 3x3, and the verdict is an
// OR over (candidate, interferer) pairs, so visit order does not matter.
// The caller fills candOf for the candidates before and clears it after.
func (sh *shard) capture(scell int32, tx *txRec) {
	g := &sh.sim.grid
	col, row := g.ColRow(int(scell))
	cols := g.Cols()
	for r := max(row-2, 0); r <= min(row+2, g.Rows()-1); r++ {
		for c := max(col-2, 0); c <= min(col+2, cols-1); c++ {
			for _, rec := range sh.cellTx[r*cols+c] {
				if rec.sender != tx.sender && rec.endNs > tx.startNs && rec.startNs < tx.endNs {
					sh.markCaptured(rec.sender)
				}
			}
		}
	}
}

// markCaptured marks the candidates interferer i captures in one pass over
// i's slab, finding the candidate of each listed node in the stripe
// through candOf. Slabs are symmetric and never list their own node, so a hit is
// exactly lossBetween(r, i)'s pair, and a receiver's own transmission never
// captures it.
func (sh *shard) markCaptured(i int32) {
	r, ns := &sh.sim.r, &sh.sim.nodes
	lo, hi := ns.nbrOff[i], ns.nbrOff[i+1]
	nbrs, loss := ns.nbrSlot[lo:hi], ns.nbrLoss[lo:hi]
	// Locals, so the stores below cannot make the loop reload them.
	first, candOf, cands := sh.lo, sh.candOf, sh.cands
	eirp, floor, th := r.eirpDBm, r.noiseDBm-10, r.captureThDB
	for k, n := range nbrs {
		if at := uint(n - first); at < uint(len(candOf)) && candOf[at] >= 0 {
			c := &cands[candOf[at]]
			if irssi := eirp - loss[k]; irssi >= floor && c.rssi-irssi < th {
				c.captured = true
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
		il, ok := s.lossBetween(r, rec.sender)
		if !ok {
			continue
		}
		irssi := s.r.eirpDBm - il
		if irssi < s.r.noiseDBm-10 {
			continue
		}
		if rssiDBm-irssi < s.r.captureThDB {
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
			if loss, ok := s.lossBetween(i, rec.sender); ok && loss <= s.r.maxLossDel {
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
