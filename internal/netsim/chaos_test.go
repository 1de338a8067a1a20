package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/routing"
)

// Chaos soak tests: fault-injection scenarios swept over chaosSeeds
// seeds. Every scenario is a pure function of its seed, and a failure
// names the seed in the subtest name, so
//
//	go test -run 'TestChaos.*/seed=8' ./internal/netsim
//
// replays exactly the failing run.
const chaosSeeds = 10

// chaosNode is the hardened node configuration under test: poisoning with
// triggered withdrawals and capped-backoff stream retransmission.
func chaosNode() core.Config {
	cfg := fastNode()
	cfg.Routing = routing.Config{EntryTTL: 30 * time.Second, Poisoning: true}
	cfg.TriggeredUpdates = true
	// Streams launched into a 60s outage need retry rounds to spare on
	// the far side of it: half-duplex relays occasionally eat a healthy
	// attempt too, and the capped backoff makes extra rounds cheap.
	cfg.StreamMaxRetries = 9
	return cfg
}

// TestChaosFlapConvergence drives the acceptance scenario: a flapping
// backbone link with down-windows long enough to expire and poison real
// routes. After the last flap the mesh must be converged and loop-free
// within three HELLO intervals, and a reliable stream launched into the
// churn must complete within its bounded capped-backoff retry budget.
func TestChaosFlapConvergence(t *testing.T) {
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// A 4-chain with the flap on the center link: after the link
			// restores, recovery must cascade through two sequential
			// HELLOs per side, which is what the 3-interval bound allows
			// (each jittered interval stretches to at most 1.2x).
			topo := mustLine(t, 4, 8000)
			node := chaosNode()
			sim, err := New(Config{Topology: topo, Node: node, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := sim.TimeToConvergence(time.Second, 10*time.Minute); !ok {
				t.Fatal("no initial convergence")
			}

			// Two 60s down-windows on the 1-2 backbone link: longer than
			// EntryTTL, so routes genuinely expire, poison, and cascade.
			plan := &faults.Plan{
				Name: "flap-convergence",
				Flaps: []faults.Flap{{
					A: 1, B: 2, // the center link of the 4-chain
					Start:  faults.Duration(30 * time.Second),
					Period: faults.Duration(90 * time.Second),
					Down:   faults.Duration(60 * time.Second),
					Count:  2,
				}},
			}
			lastEnd, ok := plan.LastFlapEnd()
			if !ok {
				t.Fatal("plan has no bounded flap end")
			}
			if err := sim.ApplyFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			flow, err := sim.StartFlow(Flow{
				From: 0, To: 3, Payload: 20, Interval: 25 * time.Second, Poisson: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Launch a reliable stream from inside the second down-window.
			sim.Run(130 * time.Second)
			src := sim.Handle(0)
			sent := collect(src)
			if _, err := src.Mesher.SendReliable(sim.Handle(3).Addr,
				bytes.Repeat([]byte("chaos-stream"), 40)); err != nil {
				t.Fatal(err)
			}

			// The convergence bound: three HELLO intervals after the last
			// flap window closes.
			bound := lastEnd + 3*node.HelloPeriod
			sim.Run(bound - 130*time.Second)
			if !sim.Converged() {
				t.Errorf("not converged %v after the last flap (bound: 3 HELLO intervals)",
					3*node.HelloPeriod)
			}
			if err := sim.CheckRoutingLoops(); err != nil {
				t.Errorf("loops/blackholes after convergence bound:\n%v", err)
			}

			// Let the stream's capped backoff play out, then audit.
			sim.Run(6 * time.Minute)
			evs := sent.streams
			if len(evs) != 1 {
				t.Fatalf("got %d stream events, want 1", len(evs))
			}
			if evs[0].Err != nil {
				t.Errorf("stream failed despite bounded retry budget: %v", evs[0].Err)
			}
			h := src.Mesher.Metrics().Histogram("stream.retx.rounds")
			if h.Count() == 0 {
				t.Error("stream.retx.rounds never observed")
			}
			maxRetries := src.Mesher.Config().StreamMaxRetries
			if maxRounds := h.Max(); maxRounds > float64(maxRetries)+1 {
				t.Errorf("retransmit rounds %v exceed bound %d", maxRounds, maxRetries+1)
			}
			if got := sim.FaultStats()[faults.ReasonFlap]; got == 0 {
				t.Error("flap windows dropped no frames")
			}
			if flow.Offered == 0 {
				t.Error("no background traffic offered")
			}
			if err := sim.CheckInvariants(); err != nil {
				t.Errorf("invariants:\n%v", err)
			}
		})
	}
}

// TestChaosMixedFaultSoak layers every injector mechanism at once — burst
// loss, random loss, corruption, a crash/restart, and a skewed clock —
// over a many-to-one telemetry workload, and demands the accounting
// ledger still balances and the mesh still delivers.
func TestChaosMixedFaultSoak(t *testing.T) {
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			topo := mustLine(t, 6, 8000)
			sim, err := New(Config{Topology: topo, Node: chaosNode(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.ApplyFaultPlan(&faults.Plan{
				Name: "mixed-soak",
				Links: []faults.LinkFault{
					{From: 2, To: 3, Symmetric: true, Kind: faults.KindBernoulli, P: 0.15},
					{From: 3, To: 4, Symmetric: true, Kind: faults.KindGilbert,
						PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.8},
				},
				Crashes: []faults.Crash{
					{Node: 4, At: faults.Duration(3 * time.Minute), Downtime: faults.Duration(90 * time.Second)},
				},
				Corrupt:    &faults.Corrupt{Rate: 0.02, MaxBits: 3},
				ClockSkews: []faults.ClockSkew{{Node: 5, Factor: 1.3}},
			}); err != nil {
				t.Fatal(err)
			}
			all, err := sim.StartManyToOne(20, 40*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(15 * time.Minute)

			total := MergeStats(all)
			if total.Offered == 0 {
				t.Fatal("no traffic offered")
			}
			if total.Delivered == 0 {
				t.Error("mixed faults silenced the mesh entirely")
			}
			if total.Delivered > total.Accepted {
				t.Errorf("delivered %d > accepted %d: duplication", total.Delivered, total.Accepted)
			}
			stats := sim.FaultStats()
			for _, reason := range []string{faults.ReasonLoss, faults.ReasonCorrupt} {
				if stats[reason] == 0 {
					t.Errorf("no %s drops injected", reason)
				}
			}
			if got := sim.reg.Counter("fault.restart").Value(); got != 1 {
				t.Errorf("fault.restart = %d, want 1", got)
			}
			if err := sim.CheckInvariants(); err != nil {
				t.Errorf("invariants:\n%v", err)
			}
		})
	}
}

// TestChaosAttackerSecured soaks a secured mesh under a sustained active
// attacker — replaying captured frames, forging HELLOs from a
// nonexistent address, and bit-flipping MICs — and demands that not one
// hostile frame is delivered to an application or admitted to a routing
// table, with every rejection accounted under the sec.drop.* counters,
// while the mesh keeps delivering and stays loop-free.
func TestChaosAttackerSecured(t *testing.T) {
	// Delivery under attack, pooled over the sweep (both flows, every
	// seed that ran to its end).
	var ran, offered, delivered int
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			topo := mustLine(t, 5, 8000)
			sim, err := New(Config{Topology: topo, Node: chaosNode(), Seed: seed, SecKey: &secTestKey})
			if err != nil {
				t.Fatal(err)
			}
			inboxes := collectAll(sim)
			if _, ok := sim.TimeToConvergence(time.Second, 10*time.Minute); !ok {
				t.Fatal("no initial convergence")
			}
			// A 10-minute barrage, then silence: the soak's back half shows
			// the mesh recovering once the channel clears.
			if err := sim.ApplyFaultPlan(&faults.Plan{
				Name: "attacker-secured",
				Attackers: []faults.Attacker{{
					Node:   2, // center of the 5-chain: overhears the most
					Start:  faults.Duration(30 * time.Second),
					Period: faults.Duration(10 * time.Second),
					Count:  60,
					Replay: true, ForgeHello: true, BitFlip: true,
				}},
			}); err != nil {
				t.Fatal(err)
			}
			up, err := sim.StartFlow(Flow{
				From: 0, To: 4, Payload: 24, Interval: 30 * time.Second, Poisson: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			down, err := sim.StartFlow(Flow{
				From: 4, To: 0, Payload: 24, Interval: 30 * time.Second, Poisson: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(20 * time.Minute)

			snap := sim.AggregateMetrics().Snapshot()
			if snap["sim.attacker.tx.frames"] < 50 {
				t.Fatalf("attacker injected only %v frames in a 20-minute soak",
					snap["sim.attacker.tx.frames"])
			}
			hostile := snap["total.sec.drop.auth"] + snap["total.sec.drop.replay"] +
				snap["total.sec.drop.legacy"]
			if hostile == 0 {
				t.Error("no hostile frame accounted under sec.drop.*")
			}
			for i := 0; i < sim.N(); i++ {
				h := sim.Handle(i)
				if _, ok := h.Mesher.Table().NextHop(ForgeAddr); ok {
					t.Errorf("node %v learned a route to forged %v", h.Addr, ForgeAddr)
				}
				for _, e := range h.Mesher.Table().Entries() {
					if e.Via == ForgeAddr {
						t.Errorf("node %v routes via forged %v", h.Addr, ForgeAddr)
					}
				}
				for _, msg := range inboxes[i].msgs {
					if sim.ByAddr(msg.From) == nil {
						t.Errorf("node %v delivered app payload from forged %v", h.Addr, msg.From)
					}
				}
			}
			for name, flow := range map[string]*TrafficStats{"up": up, "down": down} {
				if flow.Delivered == 0 {
					t.Errorf("%s flow silenced under attack (0 of %d delivered)", name, flow.Offered)
				}
			}
			ran++
			offered += up.Offered + down.Offered
			delivered += up.Delivered + down.Delivered
			// The barrage ended ~9 minutes before the soak did: the mesh
			// must have recovered full routing coverage by now.
			if !sim.Converged() {
				t.Error("mesh not converged after the attack ended")
			}
			if err := sim.CheckRoutingLoops(); err != nil {
				t.Errorf("loops/blackholes under attack:\n%v", err)
			}
			if err := sim.CheckInvariants(); err != nil {
				t.Errorf("invariants:\n%v", err)
			}
		})
	}
	// Channel occupancy from hostile transmissions is jamming — not in
	// the threat model — and during the barrage it costs unreliable 4-hop
	// datagrams dearly in collisions and the HELLO losses behind route
	// expiry. The floor guards against collapse (a security failure would
	// drop delivery to ~0), not against jamming, so it is stated over the
	// whole sweep: one flow of one seed is ~40 datagrams, whose ratio
	// swings ±0.15 on route-expiry bursts alone (seed 8's barrage half
	// delivers 7 of 40), while the ten seeds pool ~775 and read 0.62. A
	// narrowed -run sees too few to judge.
	if ran == chaosSeeds {
		if ratio := float64(delivered) / float64(offered); ratio < 0.45 {
			t.Errorf("delivered %.2f of %d datagrams under attack across the sweep, want >= 0.45", ratio, offered)
		}
	}
}
