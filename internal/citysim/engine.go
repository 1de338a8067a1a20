// engine.go — the compact telemetry-profile mesh engine: slab/SoA node
// state and the protocol handlers (beaconing, sink-tree routing, queueing,
// CSMA, duty budgets). Handlers run on the wheel of the shard owning the
// node and only ever write that node's slots; everything cross-node rides
// the barrier as a txRec. Nodes are named by slot everywhere but where the
// name is model material (hash and shadow keys, the barrier tie-break,
// sink election and initial scheduling, the digest and the delivery log),
// which read the slot's id.

package citysim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/loraphy"
)

// pkt is one queued frame awaiting transmission. Under proactive routing
// it is always a telemetry reading (kind/dst unused — the digest of a
// proactive run never folds them); the icn strategy also queues interest
// relays and named-data answers, for which kind selects the frame type
// and dst the unicast breadcrumb hop (-1 broadcasts); both are slots, as
// everywhere in engine state. Packets live in
// per-shard slabs with freelists; a frame crossing a shard boundary
// travels as txRec fields and re-materializes in the receiving shard's
// slab.
type pkt struct {
	origin int32
	born   int64
	hops   uint8
	kind   uint8
	dst    int32
}

// nodeState is the struct-of-arrays engine state, indexed by slot: space
// order, ascending by (cell column, cell row, id). Each slot is written
// only by the shard owning the node; slices are shared read-only maps of
// the whole city. Node-valued fields hold slots too.
type nodeState struct {
	// Static placement. id maps a slot to the node's id, its index in the
	// placement.
	id     []int32
	x, y   []float64
	cell   []int32
	isSink []bool

	// Distance-vector routing toward the nearest sink.
	hop     []uint16 // hops to a sink; noRoute when none
	next    []int32  // next-hop node; -1 when none
	routeAt []int64  // ns of last refresh; -1 when never/poisoned

	// Radio state. txHist keeps the last txHistLen own transmissions for
	// half-duplex checks (a receiver deaf during its own airtime).
	txEnd     []int64
	txHist    []int64 // flat [node][txHistLen]{start,end} pairs
	txHistPos []uint8

	// Bounded FIFO queue of pkt slab indexes (per owning shard's slab).
	qBuf  []int32
	qHead []uint8
	qLen  []uint8

	// EU868 1% duty budget as a token bucket (ns of airtime).
	dutyBudget []int64
	dutyAt     []int64

	backoff   []uint8
	pumpArmed []bool
	txSeq     []uint32
	helloSeq  []uint32
	dataSeq   []uint32

	// Per-node outcome counters (digest material).
	cHelloTx   []uint32
	cDataTx    []uint32
	cFwd       []uint32
	cDelivered []uint32

	// Strategy-mode state (engine_strategy.go). alloc makes a slab only
	// under the strategy that reads it (the reactive four, the icn nine);
	// under any other it stays nil, and the digest folds the initial value
	// it would have held.
	solicitAt   []int64 // reactive: last solicit heard (-1 never)
	solSeenFrom []int32 // reactive: last relayed solicit flood (origin)
	solSeenBorn []int64 // reactive: last relayed solicit flood (born)
	replyArmed  []bool  // reactive: a triggered hello reply is pending
	intSeenFrom []int32 // icn: last seen interest flood (origin)
	intSeenBorn []int64 // icn: last seen interest flood (born)
	csAt        []int64 // icn: content-store fill instant (-1 empty)
	csHops      []uint16
	pitLen      []uint8 // icn: live crumb count (0 = no entry)
	pitExpiry   []int64
	pitDown     []int32 // flat [node][pitCap] crumb slabs
	pitOrigin   []int32
	pitBorn     []int64

	// Link slabs (sharded modes): per-node neighbours, ascending, each as
	// its slot minus the node's (slotDelta) with the precomputed symmetric
	// link loss as a 16-bit code (resolved.codeLoss decodes it within
	// resolved.lossErr of linkLoss). nbrOff has n+1 entries.
	nbrOff   []int32
	nbrDelta []int16
	nbrLoss  []uint16
}

const txHistLen = 4

// alloc makes the slabs of an n-node city under strategy strat: the
// shared ones, and the strategy slabs only that strategy reads.
func (ns *nodeState) alloc(n int, strat uint8) {
	ns.id = make([]int32, n)
	ns.x = make([]float64, n)
	ns.y = make([]float64, n)
	ns.cell = make([]int32, n)
	ns.isSink = make([]bool, n)
	ns.hop = filled(n, noRoute)
	ns.next = filled(n, int32(-1))
	ns.routeAt = filled(n, int64(-1))
	ns.txEnd = make([]int64, n)
	ns.txHist = make([]int64, n*txHistLen*2)
	ns.txHistPos = make([]uint8, n)
	ns.qBuf = make([]int32, n*queueCap)
	ns.qHead = make([]uint8, n)
	ns.qLen = make([]uint8, n)
	ns.dutyBudget = make([]int64, n)
	ns.dutyAt = make([]int64, n)
	ns.backoff = make([]uint8, n)
	ns.pumpArmed = make([]bool, n)
	ns.txSeq = make([]uint32, n)
	ns.helloSeq = make([]uint32, n)
	ns.dataSeq = make([]uint32, n)
	ns.cHelloTx = make([]uint32, n)
	ns.cDataTx = make([]uint32, n)
	ns.cFwd = make([]uint32, n)
	ns.cDelivered = make([]uint32, n)
	switch strat {
	case stratReactive:
		ns.solicitAt = filled(n, int64(-1))
		ns.solSeenFrom = filled(n, int32(-1))
		ns.solSeenBorn = make([]int64, n)
		ns.replyArmed = make([]bool, n)
	case stratICN:
		ns.intSeenFrom = filled(n, int32(-1))
		ns.intSeenBorn = make([]int64, n)
		ns.csAt = filled(n, int64(-1))
		ns.csHops = make([]uint16, n)
		ns.pitLen = make([]uint8, n)
		ns.pitExpiry = make([]int64, n)
		ns.pitDown = make([]int32, n*pitCap)
		ns.pitOrigin = make([]int32, n*pitCap)
		ns.pitBorn = make([]int64, n*pitCap)
	}
}

// filled returns a slab of n copies of v.
func filled[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// recordTx pushes an own-transmission interval into the half-duplex ring.
func (ns *nodeState) recordTx(i int32, startNs, endNs int64) {
	p := int32(ns.txHistPos[i])
	base := (i*txHistLen + p) * 2
	ns.txHist[base] = startNs
	ns.txHist[base+1] = endNs
	ns.txHistPos[i] = uint8((p + 1) % txHistLen)
}

// transmittedDuring reports whether node i had an own transmission
// overlapping [startNs, endNs).
func (ns *nodeState) transmittedDuring(i int32, startNs, endNs int64) bool {
	base := i * txHistLen * 2
	for k := int32(0); k < txHistLen; k++ {
		s, e := ns.txHist[base+2*k], ns.txHist[base+2*k+1]
		if e > startNs && s < endNs {
			return true
		}
	}
	return false
}

// Hash purposes, mixed into the key so streams never collide. The
// strategy modes draw from purposes 6+ only, leaving every proactive
// stream untouched.
const (
	purposeHelloJit   uint64 = 1
	purposeDataJit    uint64 = 2
	purposeBackoff    uint64 = 3
	purposeShadow     uint64 = 4
	purposeErasure    uint64 = 5
	purposeRelayJit   uint64 = 6 // reactive/icn: flood-relay hold-off
	purposeSolicitJit uint64 = 7 // reactive: triggered hello-reply hold-off
)

// hash is the draw behind every random choice: loraphy.Mix64 (SplitMix64)
// chained over the key, never over event ordering, so serial and sharded
// runs sample identical values.
func (s *Sim) hash(purpose uint64, a, b, c uint64) uint64 {
	h := loraphy.Mix64(uint64(s.r.Seed) ^ purpose*0x9e3779b97f4a7c15)
	h = loraphy.Mix64(h ^ a)
	h = loraphy.Mix64(h ^ b)
	return loraphy.Mix64(h ^ c)
}

// hash01 maps a hash to a uniform in [0,1).
func hash01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// jitter returns a deterministic offset in [-period/8, period/8) for the
// node in slot i.
func (s *Sim) jitter(purpose uint64, i int32, seq uint32, periodNs int64) int64 {
	span := periodNs / 4
	if span <= 0 {
		return 0
	}
	h := s.hash(purpose, uint64(s.nodes.id[i]), uint64(seq), 0)
	return int64(h%uint64(span)) - span/2
}

// linkLoss is the single path-loss formula both execution modes share:
// truncated-shadowed log-distance on the resolved model (reference loss
// computed once in resolve). It is symmetric bit for bit — Hypot of an
// exactly negated difference, an unordered id pair as the shadow key — so
// buildLinks prices each unordered pair once for both slabs, and the
// serial recomputation matches the slabs exactly.
func (s *Sim) linkLoss(a, b int32) float64 {
	lo, hi := s.nodes.id[a], s.nodes.id[b]
	if lo > hi {
		lo, hi = hi, lo
	}
	dx := s.nodes.x[a] - s.nodes.x[b]
	dy := s.nodes.y[a] - s.nodes.y[b]
	loss := s.r.model.PathLossDB(math.Hypot(dx, dy), s.r.params.FrequencyHz)
	if sigma := s.r.ShadowSigmaDB; sigma > 0 {
		u1 := hash01(s.hash(purposeShadow, uint64(lo), uint64(hi), 1))
		u2 := hash01(s.hash(purposeShadow, uint64(lo), uint64(hi), 2))
		g := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
		// Truncate at +-2 sigma so maxLossRel's margin is a hard bound,
		// not a tail probability (documented model deviation).
		if g > 2 {
			g = 2
		} else if g < -2 {
			g = -2
		}
		loss += g * sigma
	}
	return loss
}

// linkPair is one radio-relevant unordered pair, i < j, in buildLinks'
// scratch list.
type linkPair struct {
	i, j int32
	loss float64
}

// slotDelta returns peer's slot less node's, as a link slab lists peer in
// node's slab, or an error when the two lie more than math.MaxInt16 slots
// apart: both directions of a link must fit an int16.
func slotDelta(node, peer int32) (int16, error) {
	d := int64(peer) - int64(node)
	if d < -math.MaxInt16 || d > math.MaxInt16 {
		return 0, fmt.Errorf("citysim: slots %d and %d link %d slots apart, past a link slab's %d", node, peer, d, math.MaxInt16)
	}
	return int16(d), nil
}

// buildLinks precomputes each node's radio-relevant neighbor list (slots
// ascending, with link loss) from the 3x3 cell neighborhood — the
// O(n*degree) substitute for airmedium's O(n^2) loss matrix. In space
// order the neighborhood's slots above i are two runs, the rest of i's
// column and the next column, so each unordered pair is priced once, for
// slot i ascending. A pair beyond reach is skipped before the log:
// shadowing is truncated at -2 sigma, so its loss exceeds maxLossRel, and
// the relative margin dwarfs the squared distance's rounding. The pairs
// are then counted into nbrOff and scattered into both endpoints' slabs;
// since i ascends, each slab comes out ascending with no sort. A slab
// lists a neighbour as its slot delta: in space order a column holds
// ∝ √Nodes slots and a linked pair lies under two columns apart, about
// 4.4·√Nodes slots at the city's density (150, 441 and 918 at 1k, 10k
// and 50k nodes), so every delta fits an int16 below about 55 M nodes.
// buildLinks checks each pair it lists and returns an error past that.
//
// The slabs hold each loss as a 16-bit code: q = round((loss −
// lossLo)/lossStep) stands for lossLo + q·lossStep, where lossLo and
// lossLo + 65535·lossStep are the least and the greatest loss listed
// (lossStep is 0 when they are equal or no link is listed, and every code
// 0). buildLinks sets lossErr = lossStep/2 + M·2^-20, M the largest
// magnitude a slab decision combines: every loss, maxLossRel (which bounds
// maxLossDel and eirp − floor), |eirp|, |floor| and the capture threshold.
// The decisions (margins in radio.go) then agree with float64 comparisons
// on linkLoss wherever the code settles them. Proof, with δ = lossStep/2
// and u = 2^-24·M, so that lossErr = δ + 16u: the nearest integer to the
// quotient stands for a loss within δ of the exact one, and the float64
// roundings of encoding and decoding, four on operands below 4M, move it
// at most 2^-49·M < u more (none when lossStep is 0). An RSSI, eirp −
// loss, and a difference of two RSSIs each take float64 operations on
// operands below 4M, each rounding at most 2^-53·4M < u/2^26; so a slab
// RSSI lies within δ + u + u/2^25 of the exact one, a difference within
// 2δ + 2u + u/2^24, and a threshold widened by ±lossErr or ±2·lossErr
// lands within u/2^26 of its real value. A loss or RSSI at least lossErr
// past its threshold, or a difference at least 2·lossErr past, is
// therefore past it exactly too, with margin to spare (16u against at most
// 3u). Only inside those bands does a decision recompute linkLoss. One
// bound serves the whole slab: a per-link one costs the evaluation more
// than the recomputes it saves.
func (s *Sim) buildLinks() error {
	n := int32(s.r.Nodes)
	ns := &s.nodes
	reach := rangeAtLoss(s.r.model, s.r.params.FrequencyHz, s.r.maxLossRel+2*s.r.ShadowSigmaDB) * (1 + 1e-9)
	reach2 := reach * reach
	// The pairs a uniform placement puts within reach, edges ignored: an
	// over-estimate, so the scratch list does not grow.
	est := float64(n) * float64(n-1) / 2 * math.Pi * reach2 / (s.r.field * s.r.field)
	pairs := make([]linkPair, 0, int(min(est, float64(n)*float64(n-1)/2))+1)
	ns.nbrOff = make([]int32, n+1)
	mag := max(s.r.maxLossRel, math.Abs(s.r.eirpDBm), math.Abs(s.r.noiseDBm-10), math.Abs(s.r.captureThDB))
	lossLo, lossHi := math.Inf(1), math.Inf(-1)
	for i := int32(0); i < n; i++ {
		col, row := s.grid.ColRow(int(ns.cell[i]))
		r0, r1 := max(row-1, 0), min(row+1, s.grid.Rows()-1)
		for c := col; c <= min(col+1, s.grid.Cols()-1); c++ {
			lo, hi := s.cellRun(c, r0, r1)
			for j := max(lo, i+1); j < hi; j++ {
				dx, dy := ns.x[i]-ns.x[j], ns.y[i]-ns.y[j]
				if dx*dx+dy*dy > reach2 {
					continue
				}
				if loss := s.linkLoss(i, j); loss <= s.r.maxLossRel {
					if _, err := slotDelta(i, j); err != nil {
						return err
					}
					mag = max(mag, math.Abs(loss))
					lossLo, lossHi = min(lossLo, loss), max(lossHi, loss)
					pairs = append(pairs, linkPair{i, j, loss})
					ns.nbrOff[i+1]++
					ns.nbrOff[j+1]++
				}
			}
		}
	}
	for i := int32(0); i < n; i++ {
		ns.nbrOff[i+1] += ns.nbrOff[i]
	}
	ns.nbrDelta = make([]int16, ns.nbrOff[n])
	ns.nbrLoss = make([]uint16, ns.nbrOff[n])
	if len(pairs) == 0 {
		lossLo, lossHi = 0, 0
	}
	s.r.lossLo, s.r.lossStep = lossLo, (lossHi-lossLo)/math.MaxUint16
	s.r.lossErr = s.r.lossStep/2 + mag*0x1p-20
	next := slices.Clone(ns.nbrOff[:n])
	for _, p := range pairs {
		q, d := s.r.lossCode(p.loss), int16(p.j-p.i) // slotDelta checked it
		k := next[p.i]
		ns.nbrDelta[k], ns.nbrLoss[k] = d, q
		next[p.i]++
		k = next[p.j]
		ns.nbrDelta[k], ns.nbrLoss[k] = -d, q
		next[p.j]++
	}
	return nil
}

// inDeliveryRange reports whether peer's frames reach node above
// sensitivity, linkLoss(node, peer) <= maxLossDel: by recomputation in the
// serial full scan, from node's slab in sharded mode, where a pair not
// listed is beyond radio relevance and a listed one recomputes linkLoss
// only when its code's loss lies within lossErr of the threshold.
func (sh *shard) inDeliveryRange(node, peer int32) bool {
	s := sh.sim
	if s.fullScan {
		return s.linkLoss(node, peer) <= s.r.maxLossDel
	}
	lo, hi := s.nodes.nbrOff[node], s.nodes.nbrOff[node+1]
	deltas, want := s.nodes.nbrDelta[lo:hi], peer-node
	// Manual binary search: this is carrier sense's lookup. Deltas ascend
	// as slots do; a peer past an int16's reach is never listed.
	i, j := 0, len(deltas)
	for i < j {
		m := (i + j) / 2
		if int32(deltas[m]) < want {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(deltas) || int32(deltas[i]) != want {
		return false
	}
	m := s.r.margins()
	switch m.delivers(s.r.codeLoss(s.nodes.nbrLoss[int(lo)+i])) {
	case yes:
		return true
	case exact:
		sh.counts.exactSense++
		return s.linkLoss(node, peer) <= s.r.maxLossDel
	}
	return false
}

// effHop returns node i's effective hop count: sinks are always 0, stale
// or poisoned routes read as noRoute.
func (s *Sim) effHop(i int32, nowNs int64) uint16 {
	if s.nodes.isSink[i] {
		return 0
	}
	at := s.nodes.routeAt[i]
	if at < 0 || nowNs-at > s.r.routeTTLNs {
		return noRoute
	}
	return s.nodes.hop[i]
}

// accrueDuty advances node i's 1% duty token bucket to nowNs.
func (s *Sim) accrueDuty(i int32, nowNs int64) {
	ns := &s.nodes
	elapsed := nowNs - ns.dutyAt[i]
	if elapsed > 0 {
		ns.dutyBudget[i] += elapsed / 100
		if cap := 10 * s.r.maxAirNs; ns.dutyBudget[i] > cap {
			ns.dutyBudget[i] = cap
		}
		ns.dutyAt[i] = nowNs
	}
}

// enqueue appends a reading to node i's bounded FIFO, dropping the oldest
// on overflow. pktIdx indexes the owning shard's slab.
func (sh *shard) enqueue(i int32, pktIdx int32) {
	ns := &sh.sim.nodes
	if int(ns.qLen[i]) == queueCap {
		head := ns.qBuf[int(i)*queueCap+int(ns.qHead[i])]
		sh.pkts.take(head)
		ns.qHead[i] = uint8((int(ns.qHead[i]) + 1) % queueCap)
		ns.qLen[i]--
		sh.stats.DropQueue++
	}
	slot := (int(ns.qHead[i]) + int(ns.qLen[i])) % queueCap
	ns.qBuf[int(i)*queueCap+slot] = pktIdx
	ns.qLen[i]++
}

// dequeue pops the oldest queued reading; ok=false when empty.
func (sh *shard) dequeue(i int32) (int32, bool) {
	ns := &sh.sim.nodes
	if ns.qLen[i] == 0 {
		return 0, false
	}
	idx := ns.qBuf[int(i)*queueCap+int(ns.qHead[i])]
	ns.qHead[i] = uint8((int(ns.qHead[i]) + 1) % queueCap)
	ns.qLen[i]--
	return idx, true
}

// scheduleInitialEvents arms every node's first hello and first telemetry
// reading, hash-staggered across their periods, in ascending id order so
// wheel sequence numbers are deterministic.
func (s *Sim) scheduleInitialEvents(slotOf []int32) {
	for id, i := range slotOf {
		sh := s.shardOfNode(i)
		helloAt := int64(s.hash(purposeHelloJit, uint64(id), 0, 1) % uint64(s.r.helloNs))
		sh.at(helloAt, evHello, i)
		if !s.nodes.isSink[i] {
			dataAt := s.r.dataNs/2 + int64(s.hash(purposeDataJit, uint64(id), 0, 1)%uint64(s.r.dataNs))
			sh.at(dataAt, evData, i)
		}
	}
}

// helloFire beacons node i's hop count and re-arms the next beacon. A busy
// radio, channel, or duty budget skips the beacon (no retry: the next
// period comes soon enough for routing).
func (sh *shard) helloFire(i int32) {
	s := sh.sim
	now := sh.nowNs
	ns := &s.nodes
	s.accrueDuty(i, now)
	ns.helloSeq[i]++
	// Reactive: an unsolicited non-sink node stays silent.
	if s.r.strat == stratReactive && !ns.isSink[i] &&
		(ns.solicitAt[i] < 0 || now-ns.solicitAt[i] > s.r.solicitTTLNs) || !sh.beaconClear(i, now) {
		sh.stats.HelloSkips++
	} else {
		sh.startTx(i, txRec{
			kind:   kindHello,
			dst:    -1,
			hopSrc: s.effHop(i, now),
		}, s.r.helloAirNs)
		ns.cHelloTx[i]++
	}
	next := s.r.helloNs + s.jitter(purposeHelloJit, i, ns.helloSeq[i], s.r.helloNs)
	sh.at(now+next, evHello, i)
}

// beaconClear is the gate every beacon-sized broadcast (hello, solicit)
// passes: the radio idle, a beacon's airtime in the duty budget, and the
// channel clear. Callers accrue the duty budget first.
func (sh *shard) beaconClear(i int32, nowNs int64) bool {
	s := sh.sim
	return s.nodes.txEnd[i] <= nowNs && s.nodes.dutyBudget[i] >= s.r.helloAirNs && !sh.channelBusy(i, nowNs)
}

// dataFire generates one telemetry reading, queues it, and re-arms. In
// ICN mode the same cadence expresses an interest in the well-known
// content instead (the reading flows sink-to-node, not node-to-sink).
func (sh *shard) dataFire(i int32) {
	s := sh.sim
	now := sh.nowNs
	ns := &s.nodes
	ns.dataSeq[i]++
	sh.stats.Offered++
	if s.r.strat == stratICN {
		sh.expressInterest(i, now)
	} else {
		sh.enqueue(i, sh.pkts.put(pkt{origin: i, born: now, hops: 0}))
		sh.pump(i)
	}
	next := s.r.dataNs + s.jitter(purposeDataJit, i, ns.dataSeq[i], s.r.dataNs)
	sh.at(now+next, evData, i)
}

// pump tries to transmit the head of node i's queue, observing the radio,
// route freshness, duty budget, and CSMA. Blocked attempts arm exactly one
// deterministic retry.
func (sh *shard) pump(i int32) {
	s := sh.sim
	ns := &s.nodes
	now := sh.nowNs
	if ns.txEnd[i] > now || ns.qLen[i] == 0 {
		return // busy radio pumps again from txDone; empty queue has nothing to do
	}
	if s.r.strat != stratICN && s.effHop(i, now) == noRoute {
		// ICN forwards by name, never by route. The other strategies need
		// a sink route; reactive ones additionally shout for one.
		if s.r.strat == stratReactive {
			sh.trySolicit(i, now, i, now, 0)
		}
		sh.armPump(i, s.r.noRouteWaitNs)
		return
	}
	if s.r.strat == stratSlotted {
		if wait := s.slotWait(i, now); wait > 0 {
			sh.stats.SlotDeferrals++
			sh.armPump(i, wait)
			return
		}
	}
	airNs := s.r.dataAirNs
	if s.r.strat == stratICN && sh.peek(i).kind == kindInterest {
		airNs = s.r.helloAirNs // interests ride the small beacon frame
	}
	s.accrueDuty(i, now)
	if ns.dutyBudget[i] < airNs {
		// Wait exactly until the bucket refills at the 1% rate.
		sh.armPump(i, (airNs-ns.dutyBudget[i])*100)
		return
	}
	if sh.channelBusy(i, now) {
		if ns.backoff[i] < 6 {
			ns.backoff[i]++
		}
		window := uint64(1) << ns.backoff[i]
		slots := 1 + s.hash(purposeBackoff, uint64(ns.id[i]), uint64(ns.txSeq[i]), uint64(ns.backoff[i]))%window
		sh.armPump(i, int64(slots)*s.r.csmaSlotNs)
		return
	}
	idx, ok := sh.dequeue(i)
	if !ok {
		return
	}
	p := sh.pkts.take(idx)
	ns.backoff[i] = 0
	kind, dst := kindData, ns.next[i]
	if s.r.strat == stratICN {
		kind, dst = p.kind, p.dst
	}
	sh.startTx(i, txRec{
		kind:   kind,
		dst:    dst,
		origin: p.origin,
		born:   p.born,
		hops:   p.hops,
	}, airNs)
	if kind == kindInterest {
		sh.stats.InterestsSent++
	} else if p.origin == i {
		ns.cDataTx[i]++
	} else {
		ns.cFwd[i]++
	}
}

// peek returns the head of node i's queue without dequeuing (qLen > 0).
func (sh *shard) peek(i int32) pkt {
	ns := &sh.sim.nodes
	return sh.pkts.items[ns.qBuf[int(i)*queueCap+int(ns.qHead[i])]]
}

// armPump schedules a single pump retry after d; duplicate arms collapse.
func (sh *shard) armPump(i int32, dNs int64) {
	ns := &sh.sim.nodes
	if ns.pumpArmed[i] {
		return
	}
	ns.pumpArmed[i] = true
	sh.at(sh.nowNs+dNs, evArmedPump, i)
}

// startTx puts a frame on the air: records radio state, spends duty
// budget, emits the txRec to the barrier outbox, and arms txDone.
func (sh *shard) startTx(i int32, tx txRec, airNs int64) {
	s := sh.sim
	ns := &s.nodes
	now := sh.nowNs
	tx.sender = i
	tx.startNs = now
	tx.endNs = now + airNs
	tx.seq = ns.txSeq[i]
	ns.txSeq[i]++
	ns.txEnd[i] = tx.endNs
	ns.recordTx(i, tx.startNs, tx.endNs)
	ns.dutyBudget[i] -= airNs
	sh.stats.FramesSent++
	sh.stats.AirtimeTotal += time.Duration(airNs)
	sh.outbox = append(sh.outbox, tx)
	sh.at(tx.endNs, evPump, i)
}

// onHello applies a received beacon to node r's sink route.
func (sh *shard) onHello(r int32, tx *txRec) {
	s := sh.sim
	ns := &s.nodes
	if ns.isSink[r] {
		return
	}
	now := sh.nowNs
	if tx.hopSrc == noRoute {
		// A routeless beacon from the current next hop poisons the route.
		if ns.next[r] == tx.sender {
			ns.routeAt[r] = -1
		}
		return
	}
	cand := tx.hopSrc + 1
	if ns.next[r] == tx.sender || cand < s.effHop(r, now) {
		ns.hop[r] = cand
		ns.next[r] = tx.sender
		ns.routeAt[r] = now
		if ns.qLen[r] > 0 {
			sh.pump(r)
		}
	}
}

// onData handles a data frame addressed to node r: terminate at sinks,
// forward otherwise.
func (sh *shard) onData(r int32, tx *txRec) {
	s := sh.sim
	ns := &s.nodes
	now := sh.nowNs
	if ns.isSink[r] {
		sh.deliver(r, tx.origin, tx.born, now)
		return
	}
	nh := tx.hops + 1
	if int(nh) > ttlHops {
		sh.stats.DropTTL++
		return
	}
	sh.enqueue(r, sh.pkts.put(pkt{origin: tx.origin, born: tx.born, hops: nh}))
	sh.pump(r)
}

// deliver records one reading arriving at node r: a telemetry reading at a
// sink, or in ICN mode the content reaching its requester (r = origin).
func (sh *shard) deliver(r, origin int32, bornNs, nowNs int64) {
	sh.sim.nodes.cDelivered[r]++
	sh.stats.Delivered++
	sh.stats.LatencySum += time.Duration(nowNs - bornNs)
	sh.deliveries.append(deliveryRec{atNs: nowNs, sink: r, origin: origin, bornNs: bornNs})
}
