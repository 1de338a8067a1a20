// shard.go — the parallel execution machinery: per-shard event wheels,
// the lockstep window loop, the barrier merge, and the cell tx-index each
// shard keeps for its stripe plus a one-column halo.

package citysim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
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
// Nodes are slots.
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

// deliveryRec is one sink delivery, digest material; sink and origin are
// slots until Deliveries names them by id.
type deliveryRec struct {
	atNs   int64
	bornNs int64
	sink   int32
	origin int32
}

// shardCmd is one window's work for a shard: integrate the previous
// window's merged list, which ended at winStartNs, if it was not empty
// (phase B), then run the wheel through [winStartNs, winEndNs) (phase A).
type shardCmd struct {
	integrate  bool
	winStartNs int64
	winEndNs   int64
	// poll bounds the worker's wait for its next command before it parks:
	// the wall of the previous window.
	poll time.Duration
}

// shard owns a contiguous stripe of grid columns [c0, c1]: the nodes in
// those columns, which space order stores as the slot range [lo, hi), their
// event wheel, and a cell tx-index covering the stripe plus a one-column
// halo so border evaluations see foreign traffic.
type shard struct {
	sim    *Sim
	id     int32
	c0, c1 int
	lo, hi int32
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
	// candOf indexes cands by slot - lo, over the stripe: -1 except while
	// capture runs, when each candidate's entry holds its position. Per
	// shard, not a nodeState slab: an interferer's slab lists nodes of
	// other stripes, whose shards fill their own indexes at the same time.
	candOf []int32

	// pkts is the queued-packet slab with a freelist.
	pkts     []pkt
	freePkts []int32

	deliveries []deliveryRec
	// stats holds the outcome counters this shard counts; Sim.Stats sums
	// them.
	stats Stats

	winStartNs int64 // current window start: the carrier-sense quantum
	integrated uint64
	busy       time.Duration // wall spent running commands

	cmds chan shardCmd
}

// newShard creates shard id, whose stripe starts at column c0 and slot lo.
func newShard(s *Sim, id int32, c0 int, lo int32) *shard {
	sh := &shard{
		sim:   s,
		id:    id,
		c0:    c0,
		lo:    lo,
		wheel: simtime.NewScheduler(time.Unix(0, 0).UTC()),
	}
	if !s.fullScan {
		sh.cellTx = make([][]airRec, s.grid.NumCells())
	}
	return sh
}

// owns reports whether the node in slot i is in the shard's stripe.
func (sh *shard) owns(i int32) bool { return sh.lo <= i && i < sh.hi }

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

// runWindows drives the lockstep window loop until the virtual clock
// passes endNs (rounded up to whole windows) or no events remain. The
// calling goroutine runs the last shard itself; every other shard runs on
// a worker goroutine. A window is one rendezvous: each shard integrates
// the previous window's merged list (phase B) and runs its wheel through
// the window (phase A), then the barrier merges the outboxes. The last
// window's list is never integrated: nothing reads it.
func (s *Sim) runWindows(endNs int64) {
	workers, own := s.shards[:len(s.shards)-1], s.shards[len(s.shards)-1]
	done := make(chan struct{}, len(workers))
	var exited sync.WaitGroup
	for _, sh := range workers {
		sh.cmds = make(chan shardCmd, 1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			sh.work(done)
		}()
	}
	defer func() {
		for _, sh := range workers {
			close(sh.cmds)
		}
		exited.Wait()
	}()
	winNs := s.r.winNs
	winStart := int64(0)
	pending := false // the merged list awaits phase B
	var poll time.Duration
	last := time.Now()
	for winStart < endNs {
		winEnd := winStart + winNs
		now := time.Now()
		poll, last = now.Sub(last), now

		s.step(workers, own, done, shardCmd{integrate: pending, winStartNs: winStart, winEndNs: winEnd, poll: poll})

		// Barrier: merge outboxes into one globally sorted list. The key
		// (startNs, sender's id) is unique — a sender's transmissions never
		// overlap — so the order is total and mode-independent.
		merged := s.winTxs[:0]
		for _, sh := range s.shards {
			merged = append(merged, sh.outbox...)
			sh.outbox = sh.outbox[:0]
		}
		slices.SortFunc(merged, func(a, b txRec) int {
			if c := cmp.Compare(a.startNs, b.startNs); c != 0 {
				return c
			}
			return cmp.Compare(s.nodes.id[a.sender], s.nodes.id[b.sender])
		})
		s.winTxs = merged
		s.stats.Windows++

		// Phase B opens the next window's command: shards integrate the
		// merged list into their tx-indexes and schedule reception
		// evaluations at endNs+W. Empty windows skip the phase (nothing
		// to integrate; pruning just waits).
		if pending = len(merged) > 0; pending {
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

// step runs cmd on every shard and returns when all have finished: the
// workers through their channels, own on the calling goroutine. All
// cross-goroutine data handoff (outboxes, winTxs, wheel state) is ordered
// by these channel operations. The wait beyond own's share is
// BarrierWait.
func (s *Sim) step(workers []*shard, own *shard, done chan struct{}, cmd shardCmd) {
	for _, sh := range workers {
		sh.cmds <- cmd
	}
	own.exec(cmd)
	t := time.Now()
	for range workers {
		await(done, cmd.poll)
	}
	s.stats.BarrierWait += time.Since(t)
}

// work is the persistent worker goroutine: commands arrive over cmds,
// each completion is acknowledged on done.
func (sh *shard) work(done chan<- struct{}) {
	var poll time.Duration
	for {
		cmd, ok := await(sh.cmds, poll)
		if !ok {
			return
		}
		sh.exec(cmd)
		poll = cmd.poll
		done <- struct{}{}
	}
}

// exec runs one window's command on the shard and adds its wall to the
// shard's busy time.
func (sh *shard) exec(cmd shardCmd) {
	t := time.Now()
	if cmd.integrate {
		sh.integrate(cmd.winStartNs)
	}
	sh.winStartNs = cmd.winStartNs
	sh.wheel.RunBefore(time.Unix(0, cmd.winEndNs).UTC())
	sh.busy += time.Since(t)
}

// await receives from ch. It polls for up to budget first, yielding the
// processor between tries, and only then parks. Parking at once left the
// second core mostly idle: every window woke the goroutines it had just
// parked. A blocking receive ends every wait, so no send is missed however
// the budget runs out, and with more goroutines than processors the
// yields hand the processor to one with work.
func await[T any](ch <-chan T, budget time.Duration) (T, bool) {
	if budget > 0 {
		deadline := time.Now().Add(budget)
		for {
			select {
			case v, ok := <-ch:
				return v, ok
			default:
			}
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
	}
	v, ok := <-ch
	return v, ok
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
		// A sender in the stripe or its halo: the shard indexes its cell,
		// and its 3x3 neighborhood reaches receivers in the stripe.
		if scol, _ := s.grid.ColRow(int(scell)); scol >= sh.c0-1 && scol <= sh.c1+1 {
			sh.cellTx[scell] = append(sh.cellTx[scell], airRec{tx.startNs, tx.endNs, tx.sender})
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
