// engine_strategy.go — the non-proactive forwarding strategies of the
// city simulator, mirroring the full-engine strategy API at slab scale:
//
//   - reactive: solicitation-gated beaconing. Nodes with traffic and no
//     route flood a solicit; only solicited (or sink) nodes beacon, and a
//     routed node answers a solicit with a jittered one-shot hello.
//   - icn: named-data pub-sub over one well-known content. Non-sink nodes
//     express interests on the telemetry cadence; sinks produce; every hop
//     caches (TTL-bounded) and aggregates concurrent interests in a
//     fixed-capacity PIT, so a flood round costs O(n) frames no matter
//     how many readers ask.
//   - slotted: the proactive engine plus a TDMA gate — data transmits
//     only inside the slot derived from the node's route depth.
//
// Determinism follows the package contract: handlers run on the owning
// shard's wheel and write only that node's slots, every random draw is a
// purpose-keyed hash (purposes 6+, so the proactive streams are
// untouched), and all cross-node effects ride txRec through the barrier.

package citysim

// pitCap bounds the breadcrumbs one node aggregates per pending
// interest; further readers are counted as aggregated but re-fetch on
// their next cadence.
const pitCap = 4

// --- slotted -----------------------------------------------------------

// slotWait returns how long node i must wait for its TDMA slot (0 = the
// current slot window still fits a data frame). The slot is the route
// depth modulo the superframe size, so each tree ring drains in its own
// phase. Callers guarantee a live route.
func (s *Sim) slotWait(i int32, nowNs int64) int64 {
	slot := int64(s.effHop(i, nowNs)) % slottedSlots
	ws := slot * s.r.slotLenNs
	phase := nowNs % s.r.slotPeriodNs
	if phase >= ws && phase+s.r.dataAirNs <= ws+s.r.slotLenNs {
		return 0
	}
	wait := ws - phase
	if wait <= 0 {
		wait += s.r.slotPeriodNs
	}
	return wait
}

// --- reactive ----------------------------------------------------------

// trySolicit broadcasts the solicit flood (origin, born), hops deep, from
// node i if the beacon gate allows. A blocked attempt is not retried: an
// originator's pump retries on its own cadence, a relay gives up.
func (sh *shard) trySolicit(i int32, nowNs int64, origin int32, born int64, hops uint8) {
	s := sh.sim
	s.accrueDuty(i, nowNs)
	if !sh.beaconClear(i, nowNs) {
		return
	}
	sh.startTx(i, txRec{kind: kindSolicit, dst: -1, origin: origin, born: born, hops: hops}, s.r.helloAirNs)
	sh.stats.SolicitsSent++
}

// onSolicit handles a received solicit at node r: licence beacons, answer
// immediately when routed, propagate the flood when not.
func (sh *shard) onSolicit(r int32, tx *txRec) {
	s := sh.sim
	ns := &s.nodes
	if tx.origin == r {
		return // own flood echoed back
	}
	now := sh.nowNs()
	ns.solicitAt[r] = now
	if ns.isSink[r] || s.effHop(r, now) != noRoute {
		// Routed: answer with a one-shot hello after a deterministic
		// jitter so concurrent answerers desynchronize.
		if !ns.replyArmed[r] {
			ns.replyArmed[r] = true
			sh.at(now+s.holdOff(purposeSolicitJit, r, tx.origin, tx.born), func() {
				ns.replyArmed[r] = false
				sh.helloOnce(r)
			})
		}
		return
	}
	// Routeless: propagate the flood toward someone who knows, once per
	// flood, TTL-bounded, after a jittered hold-off.
	if ns.solSeenFrom[r] == tx.origin && ns.solSeenBorn[r] == tx.born {
		return
	}
	ns.solSeenFrom[r], ns.solSeenBorn[r] = tx.origin, tx.born
	if int(tx.hops)+1 > ttlHops {
		sh.stats.DropTTL++
		return
	}
	origin, born, hops := tx.origin, tx.born, tx.hops+1
	sh.at(now+s.holdOff(purposeRelayJit, r, origin, born), func() { sh.solicitRelay(r, origin, born, hops) })
}

// holdOff is node r's deterministic delay, in [1, relayJitNs], before it
// answers or relays the flood (origin, born), so concurrent answerers and
// relayers desynchronize.
func (s *Sim) holdOff(purpose uint64, r, origin int32, born int64) int64 {
	return 1 + int64(s.hash(purpose, uint64(s.nodes.id[r]), uint64(s.nodes.id[origin]), uint64(born))%uint64(s.r.relayJitNs))
}

// solicitRelay re-broadcasts a solicit flood from a still-routeless node.
func (sh *shard) solicitRelay(r, origin int32, born int64, hops uint8) {
	now := sh.nowNs()
	if sh.sim.effHop(r, now) != noRoute {
		return // learned a route during the hold-off; beacons answer now
	}
	sh.trySolicit(r, now, origin, born, hops)
}

// helloOnce transmits one triggered beacon (no re-arm), with the same
// radio gates as the periodic helloFire.
func (sh *shard) helloOnce(i int32) {
	s := sh.sim
	now := sh.nowNs()
	s.accrueDuty(i, now)
	if !sh.beaconClear(i, now) {
		sh.stats.HelloSkips++
		return
	}
	sh.startTx(i, txRec{kind: kindHello, dst: -1, hopSrc: s.effHop(i, now)}, s.r.helloAirNs)
	s.nodes.cHelloTx[i]++
}

// --- icn ---------------------------------------------------------------

// csValid reports whether node i's content-store entry is fresh.
func (s *Sim) csValid(i int32, nowNs int64) bool {
	at := s.nodes.csAt[i]
	return at >= 0 && nowNs-at <= s.r.csTTLNs
}

// pitLive reports whether node i has an unexpired pending interest,
// clearing it lazily when stale.
func (s *Sim) pitLive(i int32, nowNs int64) bool {
	ns := &s.nodes
	if ns.pitLen[i] == 0 {
		return false
	}
	if nowNs > ns.pitExpiry[i] {
		ns.pitLen[i] = 0
		return false
	}
	return true
}

// pitAdd appends a breadcrumb (downstream hop, requester, express time)
// to node i's pending interest, deduplicating and bounding at pitCap.
func (s *Sim) pitAdd(i, down, origin int32, born int64) {
	ns := &s.nodes
	base := int(i) * pitCap
	for k := 0; k < int(ns.pitLen[i]); k++ {
		if ns.pitDown[base+k] == down && ns.pitOrigin[base+k] == origin {
			return
		}
	}
	if int(ns.pitLen[i]) == pitCap {
		return // full; the reader re-expresses on its next cadence
	}
	k := base + int(ns.pitLen[i])
	ns.pitDown[k], ns.pitOrigin[k], ns.pitBorn[k] = down, origin, born
	ns.pitLen[i]++
}

// expressInterest is the ICN consumer cadence: a fresh local copy
// delivers immediately, a live PIT aggregates, and otherwise a new
// interest flood starts.
func (sh *shard) expressInterest(i int32, nowNs int64) {
	s := sh.sim
	ns := &s.nodes
	if s.csValid(i, nowNs) {
		// Cache hit at the consumer itself: zero-airtime delivery.
		sh.stats.CacheHits++
		sh.deliver(i, i, nowNs, nowNs)
		return
	}
	if s.pitLive(i, nowNs) {
		s.pitAdd(i, i, i, nowNs)
		sh.stats.InterestAggregated++
		return
	}
	ns.pitLen[i] = 0
	ns.pitExpiry[i] = nowNs + s.r.pitTTLNs
	s.pitAdd(i, i, i, nowNs)
	sh.enqueue(i, sh.allocPkt(pkt{kind: kindInterest, dst: -1, origin: i, born: nowNs, hops: 0}))
	sh.pump(i)
}

// onInterest runs the ICN forwarding plane at node r: dedup, producer or
// cache answer, PIT aggregation, or jittered relay.
func (sh *shard) onInterest(r int32, tx *txRec) {
	s := sh.sim
	ns := &s.nodes
	if tx.origin == r {
		return // own flood echoed back
	}
	if ns.intSeenFrom[r] == tx.origin && ns.intSeenBorn[r] == tx.born {
		return
	}
	ns.intSeenFrom[r], ns.intSeenBorn[r] = tx.origin, tx.born
	now := sh.nowNs()

	if ns.isSink[r] || s.csValid(r, now) {
		// Producer (sinks hold the content) or cache: answer along the
		// breadcrumb. hops counts the distance from the content copy.
		var fromHops uint16
		if !ns.isSink[r] {
			sh.stats.CacheHits++
			fromHops = ns.csHops[r]
		}
		if fromHops > 254 {
			fromHops = 254
		}
		sh.queueHeldOff(r, pkt{
			kind: kindNamedData, dst: tx.sender,
			origin: tx.origin, born: tx.born, hops: uint8(fromHops),
		})
		return
	}

	if s.pitLive(r, now) {
		s.pitAdd(r, tx.sender, tx.origin, tx.born)
		sh.stats.InterestAggregated++
		return
	}
	if int(tx.hops)+1 > ttlHops {
		sh.stats.DropTTL++
		return
	}
	ns.pitLen[r] = 0
	ns.pitExpiry[r] = now + s.r.pitTTLNs
	s.pitAdd(r, tx.sender, tx.origin, tx.born)
	sh.queueHeldOff(r, pkt{
		kind: kindInterest, dst: -1,
		origin: tx.origin, born: tx.born, hops: tx.hops + 1,
	})
}

// queueHeldOff queues p at node r and pumps r after its hold-off for p's
// flood.
func (sh *shard) queueHeldOff(r int32, p pkt) {
	sh.enqueue(r, sh.allocPkt(p))
	sh.at(sh.nowNs()+sh.sim.holdOff(purposeRelayJit, r, p.origin, p.born), func() { sh.pump(r) })
}

// onNamedData handles content addressed to node r: cache it, deliver to
// our own breadcrumb, and retrace the others.
func (sh *shard) onNamedData(r int32, tx *txRec) {
	s := sh.sim
	ns := &s.nodes
	now := sh.nowNs()
	ns.csAt[r] = now
	ns.csHops[r] = uint16(tx.hops) + 1

	if !s.pitLive(r, now) {
		return // stray (expired breadcrumbs): the cache fill still counts
	}
	base := int(r) * pitCap
	crumbs := int(ns.pitLen[r])
	ns.pitLen[r] = 0
	for k := 0; k < crumbs; k++ {
		down, origin, born := ns.pitDown[base+k], ns.pitOrigin[base+k], ns.pitBorn[base+k]
		if down == r {
			sh.deliver(r, origin, born, now)
			continue
		}
		sh.enqueue(r, sh.allocPkt(pkt{
			kind: kindNamedData, dst: down,
			origin: origin, born: born, hops: tx.hops + 1,
		}))
	}
	sh.pump(r)
}
