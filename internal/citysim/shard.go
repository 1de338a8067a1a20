// shard.go — the parallel execution machinery: per-shard event wheels,
// the two-phase lockstep window loop, the barrier merge, and the cell
// tx-index each shard keeps for its stripe plus a one-column halo.

package citysim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/simtime"
)

// Frame kinds carried in txRec.kind. Hello and data are the proactive
// pair; solicit (reactive), interest and named-data (icn) exist only in
// the non-default strategy modes.
const (
	kindHello uint8 = iota
	kindData
	kindSolicit
	kindInterest
	kindNamedData
)

// txRec is one transmission crossing the barrier: everything any shard
// needs to evaluate reception without reading the sender's mutable state.
type txRec struct {
	startNs int64
	endNs   int64
	born    int64 // data: origin generation instant
	sender  int32
	dst     int32 // data: unicast next hop; hello: -1 (broadcast)
	origin  int32 // data: originating node
	seq     uint32
	hopSrc  uint16 // hello: sender's effective hop at tx time
	kind    uint8
	hops    uint8 // data: hops taken so far
}

// airRec is the on-air footprint of a transmission kept in cell tx-indexes
// for interference and carrier-sense scans.
type airRec struct {
	startNs int64
	endNs   int64
	sender  int32
}

// deliveryRec is one sink delivery, digest material.
type deliveryRec struct {
	atNs   int64
	bornNs int64
	sink   int32
	origin int32
}

// shardStats are per-shard outcome counters, merged order-independently
// (sums) into Stats.
type shardStats struct {
	framesSent      uint64
	framesDelivered uint64
	lostBelowSens   uint64
	lostCollision   uint64
	lostHalfDuplex  uint64
	lostRandom      uint64
	helloSkips      uint64
	airtimeNs       int64
	offered         uint64
	delivered       uint64
	dropQueue       uint64
	dropTTL         uint64
	latencySumNs    int64

	// Strategy-mode counters (zero under proactive).
	solicitsSent       uint64
	interestsSent      uint64
	interestAggregated uint64
	cacheHits          uint64
	slotDeferrals      uint64
}

// Worker command phases.
const (
	phaseRun uint8 = iota
	phaseIntegrate
)

type shardCmd struct {
	phase      uint8
	winStartNs int64
	winEndNs   int64
}

// shard owns a contiguous stripe of grid columns [c0, c1]: the nodes in
// those columns, their event wheel, and a cell tx-index covering the
// stripe plus a one-column halo so border evaluations see foreign traffic.
type shard struct {
	sim    *Sim
	id     int32
	c0, c1 int
	wheel  *simtime.Scheduler

	// outbox collects this shard's transmissions during phase A; drained
	// and merged by the barrier.
	outbox []txRec
	// cellTx holds in-flight airRecs per cell, populated only for cells
	// with columns in [c0-1, c1+1]. Read-only during phases, mutated only
	// at integration in merged order — the determinism invariant.
	cellTx [][]airRec
	// flightAll is the serial reference's single flat list (fullScan).
	flightAll []airRec
	// cands and heard are hear's scratch: receivers in range, receivers
	// that heard.
	cands []candidate
	heard []int32

	// pkts is the queued-packet slab with a freelist.
	pkts     []pkt
	freePkts []int32

	deliveries []deliveryRec
	stats      shardStats

	winStartNs int64 // current window start: the carrier-sense quantum
	integrated uint64

	cmds chan shardCmd
}

func newShard(s *Sim, id int32) *shard {
	sh := &shard{
		sim:   s,
		id:    id,
		c0:    -1,
		wheel: simtime.NewScheduler(time.Unix(0, 0).UTC()),
	}
	for col, owner := range s.shardOfCol {
		if owner == id {
			if sh.c0 < 0 {
				sh.c0 = col
			}
			sh.c1 = col
		}
	}
	if !s.fullScan {
		sh.cellTx = make([][]airRec, s.grid.NumCells())
	}
	return sh
}

// nowNs returns the shard wheel's clock.
func (sh *shard) nowNs() int64 { return sh.wheel.Now().UnixNano() }

// at schedules fn on the shard wheel. Scheduling in the past is a
// programming bug (the window proofs exclude it), so it panics.
func (sh *shard) at(ns int64, fn func()) {
	if _, err := sh.wheel.At(time.Unix(0, ns).UTC(), fn); err != nil {
		panic(fmt.Sprintf("citysim: shard %d: %v", sh.id, err))
	}
}

// allocPkt stores a packet in the slab and returns its index.
func (sh *shard) allocPkt(p pkt) int32 {
	if n := len(sh.freePkts); n > 0 {
		idx := sh.freePkts[n-1]
		sh.freePkts = sh.freePkts[:n-1]
		sh.pkts[idx] = p
		return idx
	}
	sh.pkts = append(sh.pkts, p)
	return int32(len(sh.pkts) - 1)
}

func (sh *shard) freePkt(idx int32) { sh.freePkts = append(sh.freePkts, idx) }

// ownsCol reports whether the shard keeps tx-index state for col (stripe
// plus halo).
func (sh *shard) indexesCol(col int) bool { return col >= sh.c0-1 && col <= sh.c1+1 }

// evaluatesAround reports whether any cell of the 3x3 neighborhood around
// scol belongs to the stripe — i.e. this shard owns receivers of the tx.
func (sh *shard) evaluatesAround(scol int) bool { return scol >= sh.c0-1 && scol <= sh.c1+1 }

// runWindows drives the lockstep two-phase window loop until the virtual
// clock passes endNs (rounded up to whole windows) or no events remain.
func (s *Sim) runWindows(endNs int64) {
	nsh := len(s.shards)
	var done chan struct{}
	if nsh > 1 {
		done = make(chan struct{}, nsh)
		for _, sh := range s.shards {
			sh.cmds = make(chan shardCmd, 1)
			go sh.work(done)
		}
		defer func() {
			for _, sh := range s.shards {
				close(sh.cmds)
			}
		}()
	}
	winNs := s.r.winNs
	winStart := int64(0)
	for winStart < endNs {
		winEnd := winStart + winNs

		// Phase A: every shard runs its wheel through [winStart, winEnd).
		if nsh == 1 {
			sh := s.shards[0]
			sh.winStartNs = winStart
			sh.wheel.RunBefore(time.Unix(0, winEnd).UTC())
		} else {
			for _, sh := range s.shards {
				sh.cmds <- shardCmd{phase: phaseRun, winStartNs: winStart, winEndNs: winEnd}
			}
			for i := 0; i < nsh; i++ {
				<-done
			}
		}

		// Barrier: merge outboxes into one globally sorted list. The key
		// (startNs, sender) is unique — a sender's transmissions never
		// overlap — so the order is total and mode-independent.
		merged := s.winTxs[:0]
		for _, sh := range s.shards {
			merged = append(merged, sh.outbox...)
			sh.outbox = sh.outbox[:0]
		}
		sort.Slice(merged, func(i, j int) bool {
			if merged[i].startNs != merged[j].startNs {
				return merged[i].startNs < merged[j].startNs
			}
			return merged[i].sender < merged[j].sender
		})
		s.winTxs = merged
		s.stats.Windows++

		// Phase B: shards integrate the merged list into their tx-indexes
		// and schedule reception evaluations at endNs+W. Empty windows
		// skip the phase (nothing to integrate; pruning just waits).
		if len(merged) > 0 {
			if nsh == 1 {
				s.shards[0].integrate(winEnd)
			} else {
				for _, sh := range s.shards {
					sh.cmds <- shardCmd{phase: phaseIntegrate, winEndNs: winEnd}
				}
				for i := 0; i < nsh; i++ {
					<-done
				}
			}
			winStart = winEnd
			continue
		}

		// Empty window: fast-forward to the window holding the globally
		// earliest pending event. Both inputs to this decision (merged
		// emptiness, the global minimum next-event time) are
		// mode-independent, so the window sequence is too.
		var minNext int64
		any := false
		for _, sh := range s.shards {
			if at, ok := sh.wheel.NextAt(); ok {
				if ns := at.UnixNano(); !any || ns < minNext {
					minNext, any = ns, true
				}
			}
		}
		if !any {
			break
		}
		if minNext >= winEnd+winNs {
			winStart = minNext / winNs * winNs
			s.stats.FastForwards++
		} else {
			winStart = winEnd
		}
	}
}

// work is the persistent shard goroutine: phases arrive over cmds, each
// completion is acknowledged on done. All cross-goroutine data handoff
// (outboxes, winTxs, wheel state) is ordered by these channel operations.
func (sh *shard) work(done chan<- struct{}) {
	for cmd := range sh.cmds {
		switch cmd.phase {
		case phaseRun:
			sh.winStartNs = cmd.winStartNs
			sh.wheel.RunBefore(time.Unix(0, cmd.winEndNs).UTC())
		case phaseIntegrate:
			sh.integrate(cmd.winEndNs)
		}
		done <- struct{}{}
	}
}

// integrate (phase B) walks the merged window transmissions in global
// order, records radio-relevant ones in the shard's cell tx-index, and
// schedules a reception evaluation at endNs+W for every transmission whose
// 3x3 neighborhood intersects the stripe. Scheduling in merged order keeps
// same-instant evaluation order identical across execution modes.
func (sh *shard) integrate(winEndNs int64) {
	s := sh.sim
	winNs := s.r.winNs
	for idx := range s.winTxs {
		tx := s.winTxs[idx] // copy: winTxs is reused next window
		scell := s.nodes.cell[tx.sender]
		if s.fullScan {
			sh.flightAll = append(sh.flightAll, airRec{tx.startNs, tx.endNs, tx.sender})
			sh.at(tx.endNs+winNs, func() { sh.evaluateTx(tx) })
			continue
		}
		scol, _ := s.grid.ColRow(int(scell))
		if sh.indexesCol(scol) {
			sh.cellTx[scell] = append(sh.cellTx[scell], airRec{tx.startNs, tx.endNs, tx.sender})
		}
		if sh.evaluatesAround(scol) {
			sh.at(tx.endNs+winNs, func() { sh.evaluateTx(tx) })
		}
	}
	sh.integrated++
	if sh.integrated%16 == 0 {
		sh.prune(winEndNs)
	}
}

// prune drops flight records that can no longer overlap any frame still
// awaiting evaluation: everything ending more than maxAir+2W before the
// current window edge.
func (sh *shard) prune(winEndNs int64) {
	keepAfter := winEndNs - sh.sim.r.maxAirNs - 2*sh.sim.r.winNs
	compact := func(recs []airRec) []airRec {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.endNs > keepAfter {
				kept = append(kept, rec)
			}
		}
		return kept
	}
	if sh.sim.fullScan {
		sh.flightAll = compact(sh.flightAll)
		return
	}
	for c := range sh.cellTx {
		if len(sh.cellTx[c]) > 0 {
			sh.cellTx[c] = compact(sh.cellTx[c])
		}
	}
}
