// digest.go — the byte-identical determinism witness. The digest folds
// every mode-independent piece of final state: per-node routing and
// counters, queue contents, the full delivery log, and the merged
// statistics (minus the machine/mode-dependent fields). Equal
// digests across Shards settings are the acceptance test for the sharded
// executor.

package citysim

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type digester uint64

func (d *digester) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	*d = digester(h)
}

func (d *digester) i64(v int64) { d.u64(uint64(v)) }

// Digest returns the FNV-1a fold of the run's mode-independent final
// state. Call after Run; calling before folds the initial state.
// Strategy-specific state (content stores, PIT crumbs, solicit/interest
// counters, queued frame kinds) is folded only in the non-proactive
// modes, so the proactive digest is byte-identical to a build without
// the strategy field. Nodes are folded in id order, and every node-valued
// field as the id it names: the digest does not see the storage order.
func (s *Sim) Digest() uint64 {
	d := digester(fnvOffset)
	ns := &s.nodes
	strategic := s.r.strat != stratProactive
	slotOf := make([]int32, s.r.Nodes)
	for i, id := range ns.id {
		slotOf[id] = int32(i)
	}
	// node folds the node in slot i, or -1 for none, as its id.
	node := func(i int32) {
		if i >= 0 {
			i = ns.id[i]
		}
		d.i64(int64(i))
	}
	for _, i := range slotOf {
		d.u64(uint64(ns.hop[i]))
		node(ns.next[i])
		d.i64(ns.routeAt[i])
		d.u64(uint64(ns.txSeq[i]))
		d.u64(uint64(ns.helloSeq[i]))
		d.u64(uint64(ns.dataSeq[i]))
		d.u64(uint64(ns.cHelloTx[i]))
		d.u64(uint64(ns.cDataTx[i]))
		d.u64(uint64(ns.cFwd[i]))
		d.u64(uint64(ns.cDelivered[i]))
		// Queue contents, oldest first. Packet slab indexes are
		// mode-dependent; the packets they name are not.
		sh := s.shardOfNode(i)
		d.u64(uint64(ns.qLen[i]))
		for k := 0; k < int(ns.qLen[i]); k++ {
			at := (int(ns.qHead[i]) + k) % queueCap
			p := sh.pkts[ns.qBuf[int(i)*queueCap+at]]
			node(p.origin)
			d.i64(p.born)
			d.u64(uint64(p.hops))
			if strategic {
				d.u64(uint64(p.kind))
				if s.r.strat == stratICN {
					node(p.dst)
				} else {
					d.i64(int64(p.dst)) // zero: only ICN addresses a queued packet
				}
			}
		}
		if strategic {
			d.i64(ns.solicitAt[i])
			node(ns.solSeenFrom[i])
			d.i64(ns.solSeenBorn[i])
			node(ns.intSeenFrom[i])
			d.i64(ns.intSeenBorn[i])
			d.i64(ns.csAt[i])
			d.u64(uint64(ns.csHops[i]))
			d.u64(uint64(ns.pitLen[i]))
			for k := int(i) * pitCap; k < int(i)*pitCap+int(ns.pitLen[i]); k++ {
				node(ns.pitDown[k])
				node(ns.pitOrigin[k])
				d.i64(ns.pitBorn[k])
			}
		}
	}

	for _, dl := range s.Deliveries() {
		d.i64(int64(dl.At))
		d.i64(int64(dl.Born))
		d.i64(int64(dl.Sink))
		d.i64(int64(dl.Origin))
	}

	st := s.Stats()
	d.u64(uint64(st.Nodes))
	d.u64(uint64(st.Sinks))
	d.u64(st.Windows)
	d.u64(st.FastForwards)
	d.u64(st.FramesSent)
	d.u64(st.FramesDelivered)
	d.u64(st.LostBelowSensitivity)
	d.u64(st.LostCollision)
	d.u64(st.LostHalfDuplex)
	d.u64(st.LostRandom)
	d.u64(st.HelloSkips)
	d.i64(int64(st.AirtimeTotal))
	d.u64(st.Offered)
	d.u64(st.Delivered)
	d.u64(st.DropQueue)
	d.u64(st.DropTTL)
	d.i64(int64(st.LatencySum))
	if strategic {
		d.u64(st.SolicitsSent)
		d.u64(st.InterestsSent)
		d.u64(st.InterestAggregated)
		d.u64(st.CacheHits)
		d.u64(st.SlotDeferrals)
	}
	return uint64(d)
}
