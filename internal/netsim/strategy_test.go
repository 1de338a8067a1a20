package netsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/icn"
	"repro/internal/packet"
	"repro/internal/slotted"
)

// Integration tests for the pluggable forwarding strategies: the ICN
// named-data mode (interest aggregation, in-mesh cache hits, correctness
// under chaos) and the slotted real-time mode (latency-bound invariant),
// plus the replay-determinism bar every new strategy must clear.

// icnContent is the deterministic producer the tests use: content is a
// pure function of the name, so cache-hit correctness is checkable at
// any consumer.
func icnContent(name string) []byte {
	return []byte("content(" + name + ")")
}

func TestICNRetrievalOnChain(t *testing.T) {
	// 3-hop chain: producer at one end, consumer at the other. The
	// interest floods to the producer and the data retraces the PIT
	// breadcrumbs back, being cached at every hop.
	topo := mustLine(t, 4, 8000)
	sim, err := New(Config{
		Topology: topo, Protocol: forward.KindICN, Seed: 1,
		ICNProduce: func(i int, name string) []byte {
			if i == 3 {
				return icnContent(name)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	consumer := sim.Handle(0)
	got := collect(consumer)
	if err := consumer.ICN.Express("sensor/temp"); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Minute)
	if len(got.msgs) != 1 {
		t.Fatalf("consumer deliveries = %d, want 1", len(got.msgs))
	}
	msg := got.msgs[0]
	want := append([]byte("sensor/temp\x00"), icnContent("sensor/temp")...)
	if !bytes.Equal(msg.Payload, want) {
		t.Errorf("delivered %q, want %q", msg.Payload, want)
	}
	if msg.From != sim.Handle(3).Addr {
		t.Errorf("delivery attributed to %v, want producer %v", msg.From, sim.Handle(3).Addr)
	}
	// Every intermediate node on the data path now caches the content.
	for _, i := range []int{1, 2} {
		snap := sim.Handle(i).Proto.Metrics().Snapshot()
		if snap["icn.cs.bytes"] == 0 {
			t.Errorf("node %d cached nothing after relaying data", i)
		}
	}
}

// TestInterestRounds drives the shared pull-workload generator: one offer
// per (consumer, round), the producer never a consumer, expressions at or
// past the duration never scheduled, and a non-ICN simulation refused.
func TestInterestRounds(t *testing.T) {
	const producer, period = 0, 5 * time.Minute
	sim, err := New(Config{
		Topology: mustLine(t, 4, 8000), Protocol: forward.KindICN, Seed: 3,
		ICNProduce: func(i int, name string) []byte {
			if i == producer {
				return icnContent(name)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prod := collect(sim.Handle(producer))
	if _, err := sim.StartInterestRounds("t/", 0, time.Hour); err == nil {
		t.Error("zero period: want error")
	}
	// 2.1 periods: two rounds, and no third one started in the tail.
	duration := 2*period + period/10
	stats, err := sim.StartInterestRounds("t/", period, duration)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(duration)
	consumers := sim.N() - 1
	if stats.Offered != 2*consumers || stats.Delivered != stats.Offered {
		t.Errorf("offered %d delivered %d, want %d each (2 rounds x %d consumers)",
			stats.Offered, stats.Delivered, 2*consumers, consumers)
	}
	if n := len(MergeStats([]*TrafficStats{stats}).Latencies); n != stats.Delivered || stats.MeanLatency() <= 0 {
		t.Errorf("latencies %d mean %v for %d deliveries", n, stats.MeanLatency(), stats.Delivered)
	}
	if got := len(prod.msgs); got != 0 {
		t.Errorf("the producer read %d of its own data", got)
	}

	push, err := New(Config{Topology: mustLine(t, 2, 8000), Node: fastNode(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := push.StartInterestRounds("t/", period, duration); err == nil {
		t.Error("proactive simulation: want error")
	}
}

func TestICNAggregationAndCacheHit(t *testing.T) {
	// 3×3 grid, producer in one corner. Consumer A fetches first (filling
	// caches along the path), then two more consumers ask for the same
	// name: their staggered interests aggregate in shared PITs, and later
	// interests are answered by intermediate caches, never reaching the
	// producer again.
	topo, err := geo.Grid(3, 3, 8000)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{
		Topology: topo, Protocol: forward.KindICN, Seed: 3,
		ICNProduce: func(i int, name string) []byte {
			if i == 0 {
				return icnContent(name)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const name = "city/air-quality"
	inboxes := map[int]*inbox{8: collect(sim.Handle(8)), 6: collect(sim.Handle(6)), 7: collect(sim.Handle(7))}
	// Two far-corner consumers express almost simultaneously — the second
	// interest reaches nodes already holding a pending PIT entry and must
	// aggregate instead of re-flooding — and keep re-expressing every
	// 30 s (the ICN retry model: lost floods are the application's to
	// retry) until the grid's hidden-terminal collisions let a round
	// through.
	for round := 0; round < 8; round++ {
		at := time.Duration(round) * 30 * time.Second
		for _, c := range []struct {
			idx    int
			offset time.Duration
		}{{8, time.Second}, {6, 1200 * time.Millisecond}} {
			c := c
			sim.Sched.MustAfter(at+c.offset, func() {
				if len(inboxes[c.idx].msgs) == 0 {
					_ = sim.Handle(c.idx).ICN.Express(name)
				}
			})
		}
	}
	sim.Run(5 * time.Minute)
	// A third consumer asks after the content has spread: its interest
	// must be answered from an intermediate content store.
	for round := 0; round < 4; round++ {
		at := time.Duration(round) * 30 * time.Second
		sim.Sched.MustAfter(at+time.Second, func() {
			if len(inboxes[7].msgs) == 0 {
				_ = sim.Handle(7).ICN.Express(name)
			}
		})
	}
	sim.Run(3 * time.Minute)

	agg := sim.AggregateMetrics().Snapshot()
	if agg["total.icn.interest.aggregated"] == 0 {
		t.Error("no interest aggregation despite overlapping interests")
	}
	if agg["total.icn.cs.hit"] == 0 {
		t.Error("no content-store hit despite cached content on the path")
	}
	if agg["total.icn.airtime.saved_ms"] == 0 {
		t.Error("cache hits credited no saved airtime")
	}
	want := append([]byte(name+"\x00"), icnContent(name)...)
	for _, i := range []int{8, 6, 7} {
		msgs := inboxes[i].msgs
		if len(msgs) == 0 {
			t.Errorf("consumer %d got no delivery", i)
			continue
		}
		if !bytes.Equal(msgs[0].Payload, want) {
			t.Errorf("consumer %d delivered %q, want %q", i, msgs[0].Payload, want)
		}
	}
}

// icnChaosPlan is an E12-style plan (link loss + a flapping link) the
// ICN correctness test runs under.
func icnChaosPlan() *faults.Plan {
	return &faults.Plan{
		Name: "icn-chaos",
		Links: []faults.LinkFault{
			{From: 1, To: 2, Symmetric: true, Kind: faults.KindBernoulli, P: 0.15},
		},
		Flaps: []faults.Flap{
			{A: 2, B: 3, Start: faults.Duration(3 * time.Minute),
				Period: faults.Duration(4 * time.Minute),
				Down:   faults.Duration(time.Minute), Count: 3},
		},
	}
}

func TestICNCorrectUnderChaosAcrossSeeds(t *testing.T) {
	// Cache-hit correctness under faults: whatever the loss pattern does
	// to interest and data frames, every delivered content object must be
	// byte-exact — a cache must never serve stale or corrupted bytes —
	// and overlapping interests must still aggregate.
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			topo := mustLine(t, 5, 8000)
			sim, err := New(Config{
				Topology: topo, Protocol: forward.KindICN, Seed: seed,
				ICNProduce: func(i int, name string) []byte {
					if i == 4 {
						return icnContent(name)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.ApplyFaultPlan(icnChaosPlan()); err != nil {
				t.Fatal(err)
			}
			consumers := []*inbox{collect(sim.Handle(0)), collect(sim.Handle(1))}
			// Both near-end consumers re-express periodically (interests
			// are not retransmitted, so lost rounds are retried by the
			// application), staggered so rounds overlap in shared PITs.
			for round := 0; round < 8; round++ {
				at := time.Duration(round) * 2 * time.Minute
				name := fmt.Sprintf("reading/%d", round/2)
				sim.Sched.MustAfter(at+time.Second, func() { _ = sim.Handle(0).ICN.Express(name) })
				sim.Sched.MustAfter(at+1200*time.Millisecond, func() { _ = sim.Handle(1).ICN.Express(name) })
			}
			sim.Run(20 * time.Minute)

			delivered := 0
			for i, in := range consumers {
				for _, msg := range in.msgs {
					delivered++
					name, content, ok := icn.SplitDelivery(msg.Payload)
					if !ok {
						t.Fatalf("consumer %d: delivery %q has no name separator", i, msg.Payload)
					}
					if !bytes.Equal(content, icnContent(name)) {
						t.Errorf("consumer %d: content for %q = %q, want %q",
							i, name, content, icnContent(name))
					}
				}
			}
			if delivered == 0 {
				t.Error("no deliveries at all under the chaos plan")
			}
			agg := sim.AggregateMetrics().Snapshot()
			if agg["total.icn.interest.aggregated"] == 0 {
				t.Error("no interest aggregation across 8 overlapping rounds")
			}
		})
	}
}

func TestICNReplayByteIdentical(t *testing.T) {
	// The chaos-suite replay bar applied to the ICN strategy: same
	// (plan, seed) must reproduce the JSONL trace byte for byte.
	run := func(seed int64) []byte {
		topo := mustLine(t, 5, 8000)
		sim, err := New(Config{
			Topology: topo, Protocol: forward.KindICN, Seed: seed,
			TraceCapacity: 64,
			ICNProduce: func(i int, name string) []byte {
				if i == 4 {
					return icnContent(name)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		sim.Tracer.SetSink(&sink)
		if err := sim.ApplyFaultPlan(icnChaosPlan()); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			at := time.Duration(round) * 3 * time.Minute
			name := fmt.Sprintf("reading/%d", round)
			sim.Sched.MustAfter(at+time.Second, func() { _ = sim.Handle(0).ICN.Express(name) })
			sim.Sched.MustAfter(at+1200*time.Millisecond, func() { _ = sim.Handle(1).ICN.Express(name) })
		}
		sim.Run(15 * time.Minute)
		return sink.Bytes()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no trace emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same (plan, seed) produced different ICN JSONL traces")
	}
	if !strings.Contains(string(a), `"kind":"interest"`) {
		t.Error("trace carries no interest events")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Error("different seed produced an identical trace")
	}
}

func TestSlottedMeetsLatencyBound(t *testing.T) {
	// The real-time promise: under the slotted schedule, every flow
	// delivery lands inside the declared latency bound — enforced as a
	// health invariant, so the run must end with zero latency_bound
	// violations (and the gate must actually have deferred something).
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Protocol: forward.KindSlotted, Node: fastNode(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("slotted mesh did not converge")
	}
	stats, err := sim.StartFlow(Flow{From: 2, To: 0, Payload: 16, Interval: 25 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	if stats.Delivered == 0 {
		t.Fatal("no deliveries under the slotted schedule")
	}
	for _, lat := range MergeStats([]*TrafficStats{stats}).Latencies {
		if lat > slotted.LatencyBound {
			t.Errorf("delivery latency %v exceeds bound %v", lat, slotted.LatencyBound)
		}
	}
	agg := sim.AggregateMetrics().Snapshot()
	if agg["health.violation."+health.KindLatencyBound] != 0 {
		t.Errorf("latency-bound violations = %v, want 0",
			agg["health.violation."+health.KindLatencyBound])
	}
	if agg["total.slotted.gate.deferrals"] == 0 {
		t.Error("slot gate never deferred a data frame — schedule not engaged")
	}
	if agg["total.slotted.beacon.tx"] == 0 {
		t.Error("no slot beacons transmitted")
	}
}

func TestSlottedLatencyBoundViolationDetected(t *testing.T) {
	// The invariant must be falsifiable. The schedule bounds queueing at
	// its designed load, not under overload: a full-size datagram every
	// second is more airtime than one slot per superframe carries, the
	// origin's transmit queue fills, and a frame that waits out the whole
	// queue is late — which the monitor has to flag.
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Protocol: forward.KindSlotted, Node: fastNode(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("slotted mesh did not converge")
	}
	stats, err := sim.StartFlow(Flow{
		From: 2, To: 0, Payload: packet.MaxPayload(packet.TypeData), Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	late := 0
	for _, lat := range MergeStats([]*TrafficStats{stats}).Latencies {
		if lat > slotted.LatencyBound {
			late++
		}
	}
	if late == 0 {
		t.Fatalf("overload produced no delivery slower than %v (%d delivered)", slotted.LatencyBound, stats.Delivered)
	}
	agg := sim.AggregateMetrics().Snapshot()
	if agg["health.violation."+health.KindLatencyBound] == 0 {
		t.Errorf("%d deliveries past the bound, no latency_bound violations", late)
	}
}

func TestSlottedReplayByteIdentical(t *testing.T) {
	run := func(seed int64) []byte {
		topo := mustLine(t, 4, 8000)
		sim, err := New(Config{
			Topology: topo, Protocol: forward.KindSlotted, Node: fastNode(),
			Seed: seed, TraceCapacity: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		sim.Tracer.SetSink(&sink)
		if err := sim.ApplyFaultPlan(replayPlan()); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.StartFlow(Flow{
			From: 0, To: 3, Payload: 24, Interval: 20 * time.Second, Poisson: true,
		}); err != nil {
			t.Fatal(err)
		}
		sim.Run(10 * time.Minute)
		return sink.Bytes()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no trace emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same (plan, seed) produced different slotted JSONL traces")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Error("different seed produced an identical trace")
	}
}

func TestStrategyKindsExposedByEngines(t *testing.T) {
	// A strategy is its name: Config{Topology, Protocol, Seed} — plus the
	// application's content under ICN — is a complete selection for every
	// forward.Kind: each builds and delivers under that strategy's
	// workload with nothing else set.
	const active = 30 * time.Minute
	for _, kind := range forward.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Topology: mustLine(t, 3, 8000), Protocol: kind, Seed: 1}
			if kind == forward.KindICN {
				cfg.ICNProduce = func(i int, name string) []byte {
					if i == 0 {
						return icnContent(name)
					}
					return nil
				}
			}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sim.TimeToConvergence(10*time.Second, time.Hour); !ok {
				t.Fatal("no convergence")
			}
			// MergeStats snapshots by value, so push flows merge after the
			// run; the ICN accounting object is mutated in place.
			var stats *TrafficStats
			var flows []*TrafficStats
			if kind == forward.KindICN {
				stats, err = sim.StartInterestRounds("t/", 5*time.Minute, active)
			} else {
				flows, err = sim.StartManyToOne(16, 2*time.Minute)
			}
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(active)
			if stats == nil {
				stats = MergeStats(flows)
			}
			if stats.Offered == 0 || stats.DeliveryRatio() < 0.5 {
				t.Errorf("offered %d, delivered %d: the strategy does not carry its workload", stats.Offered, stats.Delivered)
			}
		})
	}
}
