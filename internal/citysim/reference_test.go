package citysim

// The reference: evaluateTx, evalAt and clearOfInterference as they stood
// before reception was read from the sender's link slab, verbatim but for
// their receiver type, the 3x3 population they once read from a Sim
// field, the handler dispatch, which appends the receiver to heard, and
// space order: a cell's stations are a slot run, a shard owns a slot
// range, and the erasure key names nodes by id; and link losses, which
// refLossBetween recomputes in float64, where a link slab once held them.
// TestHearMatchesReference holds hear to them.

// refShard is a shard whose reception counters and heard list are its
// own, so the reference decides a frame without disturbing the shard.
type refShard struct {
	*shard
	stats Stats
	heard []int32
}

// refLossBetween is lossBetween as it stood when the link slabs held
// float64 losses. The serial full scan recomputed linkLoss so; in sharded
// mode every pair the reference asks about lies in a 3x3 neighborhood,
// where a slab listed exactly the pairs within maxLossRel, at linkLoss.
func refLossBetween(s *Sim, node, peer int32) (float64, bool) {
	loss := s.linkLoss(node, peer)
	return loss, loss <= s.r.maxLossRel
}

// refStations returns the slot run of a cell's stations.
func refStations(s *Sim, cell int) (lo, hi int32) {
	col, row := s.grid.ColRow(cell)
	return s.cellRun(col, row, row)
}

// refPop3x3 is the station count of a cell's 3x3 neighborhood.
func refPop3x3(s *Sim, cell int32) int32 {
	var pop int32
	s.grid.ForNeighbors(int(cell), func(nc int) {
		lo, hi := refStations(s, nc)
		pop += hi - lo
	})
	return pop
}

// evaluateTx evaluates one transmission at every candidate receiver this
// shard owns. Fired at tx.endNs + W, when every transmission that can
// overlap tx has crossed a barrier — the interferer set is exact.
func (sh *refShard) evaluateTx(tx txRec) {
	s := sh.sim
	if s.fullScan {
		for r := int32(0); r < int32(s.r.Nodes); r++ {
			if r != tx.sender {
				sh.evalAt(r, &tx)
			}
		}
		return
	}
	scell := s.nodes.cell[tx.sender]
	if sh.owns(tx.sender) {
		// Bulk-account everything outside the 3x3 neighborhood (which
		// holds the sender itself) as below sensitivity, exactly once per
		// transmission (by the cell owner).
		sh.stats.LostBelowSensitivity += uint64(s.r.Nodes) - uint64(refPop3x3(s, scell))
	}
	s.grid.ForNeighbors(int(scell), func(c int) {
		lo, hi := refStations(s, c)
		for r := lo; r < hi; r++ {
			if r != tx.sender && sh.owns(r) {
				sh.evalAt(r, &tx)
			}
		}
	})
}

// evalAt decides one (transmission, receiver) outcome. Gate order is part
// of the determinism contract: sensitivity first (so bulk-skipped and
// individually-rejected far nodes share a bucket), then half-duplex,
// interference, and the erasure channel.
func (sh *refShard) evalAt(r int32, tx *txRec) {
	s := sh.sim
	loss, ok := refLossBetween(s, r, tx.sender)
	if !ok || loss > s.r.maxLossDel {
		sh.stats.LostBelowSensitivity++
		return
	}
	if s.nodes.transmittedDuring(r, tx.startNs, tx.endNs) {
		sh.stats.LostHalfDuplex++
		return
	}
	if !sh.clearOfInterference(r, tx, s.r.eirpDBm-loss) {
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
// transmission at receiver r under the capture model. Interferers weaker
// than 10 dB below the noise floor are ignored in both modes (the uniform
// relevance floor that makes cell pruning exact).
func (sh *refShard) clearOfInterference(r int32, tx *txRec, rssiDBm float64) bool {
	s := sh.sim
	survives := func(rec *airRec) bool {
		if rec.sender == tx.sender || rec.sender == r {
			return true // own frame; own transmissions are half-duplex's job
		}
		if rec.endNs <= tx.startNs || rec.startNs >= tx.endNs {
			return true // no overlap
		}
		il, ok := refLossBetween(s, r, rec.sender)
		if !ok {
			return true
		}
		irssi := s.r.eirpDBm - il
		if irssi < s.r.noiseDBm-10 {
			return true
		}
		return rssiDBm-irssi >= s.r.captureThDB
	}
	if s.fullScan {
		for i := range sh.flightAll {
			if !survives(&sh.flightAll[i]) {
				return false
			}
		}
		return true
	}
	clear := true
	s.grid.ForNeighbors(int(s.nodes.cell[r]), func(c int) {
		if !clear {
			return
		}
		recs := sh.cellTx[c]
		for i := range recs {
			if !survives(&recs[i]) {
				clear = false
				return
			}
		}
	})
	return clear
}
