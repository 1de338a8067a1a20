package netsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/airmedium"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/trace"
)

// fastNode returns a node template with short timers for quick tests.
func fastNode() core.Config {
	return core.Config{
		HelloPeriod:    5 * time.Second,
		StreamRetry:    5 * time.Second,
		DutyCycleLimit: 1,
		Routing:        routing.Config{EntryTTL: 30 * time.Second},
	}
}

// mustLine builds a line topology or fails the test.
func mustLine(t *testing.T, n int, spacing float64) *geo.Topology {
	t.Helper()
	topo, err := geo.Line(n, spacing)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config: want error")
	}
	topo := mustLine(t, 3, 100)
	if _, err := New(Config{Topology: mustLine(t, int(packet.Broadcast-baseAddress)+1, 100)}); err == nil {
		t.Error("address collision with broadcast: want error")
	}
	if _, err := New(Config{Topology: topo, Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol: want error")
	}
}

func TestMeshFormsOnChain(t *testing.T) {
	// At SF7 / n=2.7 / 14 dBm the link closes at ≈13 km, so 8 km spacing
	// connects adjacent nodes only: a true multi-hop chain.
	topo := mustLine(t, 5, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed, ok := sim.TimeToConvergence(time.Second, 5*time.Minute)
	if !ok {
		t.Fatalf("mesh did not converge within 5 minutes (got %v)", elapsed)
	}
	// End-to-end route goes through intermediate nodes.
	first := sim.Handle(0)
	last := sim.Handle(sim.N() - 1)
	e, ok := first.Mesher.Table().Lookup(last.Addr)
	if !ok {
		t.Fatal("no route across the chain")
	}
	if e.Metric < 2 {
		t.Errorf("end-to-end metric = %d, want multi-hop", e.Metric)
	}
}

func TestEndToEndDatagramOverPHY(t *testing.T) {
	topo := mustLine(t, 4, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 2, TraceCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	payload := []byte("hello across the field")
	dst := collect(sim.Handle(3))
	if err := sim.Handle(0).Proto.Send(sim.Handle(3).Addr, payload); err != nil {
		t.Fatal(err)
	}
	sim.Run(30 * time.Second)
	msgs := dst.msgs
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatalf("destination messages = %d", len(msgs))
	}
	if len(sim.Tracer.Events()) == 0 {
		t.Error("tracer recorded nothing")
	}
}

func TestReliableTransferOverPHY(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	payload := make([]byte, 2500)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	src, dst := collect(sim.Handle(0)), collect(sim.Handle(2))
	if _, err := sim.Handle(0).Mesher.SendReliable(sim.Handle(2).Addr, payload); err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	evs := src.streams
	if len(evs) != 1 || evs[0].Err != nil {
		t.Fatalf("stream events = %+v", evs)
	}
	msgs := dst.msgs
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatal("reliable payload corrupted over PHY")
	}
}

func TestKillAndRouteRepair(t *testing.T) {
	// Diamond: 0 - {1,2} - 3. Killing node 1 leaves a path via node 2.
	topo := &geo.Topology{Name: "diamond", Positions: []geo.Point{
		{X: 0, Y: 0}, {X: 8000, Y: 3000}, {X: 8000, Y: -3000}, {X: 16000, Y: 0},
	}}
	cfg := fastNode()
	cfg.Routing = routing.Config{EntryTTL: 20 * time.Second}
	sim, err := New(Config{Topology: topo, Node: cfg, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	if err := sim.Kill(1); err != nil {
		t.Fatal(err)
	}
	if !sim.handles[1].killed {
		t.Fatal("killed node still alive")
	}
	// Repair means the stale route through the dead node expires and a
	// fresh one via the surviving router replaces it. (Converged() alone
	// would be satisfied by the stale entry until its TTL lapses.)
	repaired := func() bool {
		via, ok := sim.Handle(0).Mesher.Table().NextHop(sim.Handle(3).Addr)
		return ok && via == sim.Handle(2).Addr
	}
	if _, ok := sim.RunUntil(repaired, time.Second, 10*time.Minute); !ok {
		t.Fatal("mesh did not repair after node death")
	}
	// And traffic flows via the surviving path.
	dst := collect(sim.Handle(3))
	if err := sim.Handle(0).Proto.Send(sim.Handle(3).Addr, []byte("rerouted")); err != nil {
		t.Fatal(err)
	}
	sim.Run(30 * time.Second)
	if len(dst.msgs) != 1 {
		t.Fatal("datagram not delivered after repair")
	}
	// Kill is idempotent.
	if err := sim.Kill(1); err != nil {
		t.Fatal(err)
	}
}

func TestFloodingProtocolOnPHY(t *testing.T) {
	topo := mustLine(t, 4, 8000)
	sim, err := New(Config{
		Topology: topo,
		Protocol: forward.KindFlooding,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flooding needs no convergence.
	if !sim.Converged() {
		t.Fatal("flooding should trivially report converged")
	}
	dst := collect(sim.Handle(3))
	if err := sim.Handle(0).Proto.Send(sim.Handle(3).Addr, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	if len(dst.msgs) != 1 {
		t.Fatalf("flooded datagram not delivered: %d msgs", len(dst.msgs))
	}
}

func TestFlowStatsAndLatency(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	stats, err := sim.StartFlow(Flow{From: 0, To: 2, Payload: 24, Interval: 20 * time.Second, Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6 * time.Minute)
	if stats.Offered != 10 {
		t.Fatalf("offered = %d, want 10", stats.Offered)
	}
	if stats.Delivered < 8 {
		t.Errorf("delivered = %d/10 on a clean 2-hop path, want ≥8", stats.Delivered)
	}
	if stats.DeliveryRatio() < 0.8 {
		t.Errorf("PDR = %v", stats.DeliveryRatio())
	}
	if ml := stats.MeanLatency(); ml <= 0 || ml > 10*time.Second {
		t.Errorf("mean latency = %v, want positive and subdominant to interval", ml)
	}
}

func TestFlowValidation(t *testing.T) {
	topo := mustLine(t, 2, 100)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.StartFlow(Flow{From: 0, To: 0, Interval: time.Second}); err == nil {
		t.Error("self flow: want error")
	}
	if _, err := sim.StartFlow(Flow{From: 0, To: 5, Interval: time.Second}); err == nil {
		t.Error("out-of-range flow: want error")
	}
	if _, err := sim.StartFlow(Flow{From: 0, To: 1}); err == nil {
		t.Error("zero interval: want error")
	}
}

func TestManyToOneTraffic(t *testing.T) {
	topo, err := geo.Star(5, 1500)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	all, err := sim.StartManyToOne(20, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)
	total := MergeStats(all)
	if total.Offered == 0 || total.Delivered == 0 {
		t.Fatalf("many-to-one produced no traffic: %+v", total)
	}
	if total.DeliveryRatio() < 0.7 {
		t.Errorf("star PDR = %v, want ≥0.7", total.DeliveryRatio())
	}
}

// TestStartPairsMatchesHandWrittenLoop pins StartPairs to the loop seven
// call sites used to spell out: same flows in the same order, so every RNG
// draw — and with it every outcome — is where it was.
func TestStartPairsMatchesHandWrittenLoop(t *testing.T) {
	run := func(start func(*Sim) ([]*TrafficStats, error)) *TrafficStats {
		topo, err := geo.Grid(2, 3, 8000)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
			t.Fatal("no convergence")
		}
		all, err := start(sim)
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(10 * time.Minute)
		return MergeStats(all)
	}
	got := run(func(sim *Sim) ([]*TrafficStats, error) { return sim.StartPairs(30 * time.Second) })
	want := run(func(sim *Sim) ([]*TrafficStats, error) {
		var all []*TrafficStats
		n := sim.N()
		for i := 0; i < n; i++ {
			st, err := sim.StartFlow(Flow{
				From: i, To: (i + n/2) % n, Payload: 24,
				Interval: 30 * time.Second, Poisson: true,
			})
			if err != nil {
				return nil, err
			}
			all = append(all, st)
		}
		return all, nil
	})
	if want.Delivered == 0 {
		t.Fatalf("the reference loop delivered nothing: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("StartPairs = %+v\nhand-written loop = %+v", got, want)
	}
}

func TestAggregateMetricsAndAirtime(t *testing.T) {
	topo := mustLine(t, 3, 1500)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	snap := sim.AggregateMetrics().Snapshot()
	if snap["total.tx.frames"] == 0 {
		t.Error("no transmissions aggregated")
	}
	perNode := snap["node.0001.tx.frames"] + snap["node.0002.tx.frames"] + snap["node.0003.tx.frames"]
	if perNode != snap["total.tx.frames"] {
		t.Errorf("per-node sum %v != total %v", perNode, snap["total.tx.frames"])
	}
	if sim.TotalAirtime() <= 0 {
		t.Error("no airtime accumulated")
	}
}

func TestMoveChangesConnectivity(t *testing.T) {
	// Two nodes in range; move one out; routes expire.
	topo := mustLine(t, 2, 500)
	cfg := fastNode()
	cfg.Routing = routing.Config{EntryTTL: 15 * time.Second}
	sim, err := New(Config{Topology: topo, Node: cfg, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 2*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	if err := sim.Medium.SetPosition(sim.Handle(1).Station, geo.Point{X: 500e3}); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Minute)
	if _, ok := sim.Handle(0).Mesher.Table().NextHop(sim.Handle(1).Addr); ok {
		t.Error("route survived the neighbor moving out of range")
	}
}

func TestByAddrAndHandles(t *testing.T) {
	topo := mustLine(t, 3, 100)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if h := sim.ByAddr(baseAddress + 1); h == nil || h.Index != 1 {
		t.Errorf("ByAddr(%v) = %+v, want index 1", baseAddress+1, h)
	}
	for _, outside := range []packet.Address{baseAddress - 1, baseAddress + 3} {
		if h := sim.ByAddr(outside); h != nil {
			t.Errorf("ByAddr(%v) outside the block = %+v, want nil", outside, h)
		}
	}
	if sim.Handle(2).Addr != baseAddress+2 {
		t.Errorf("handle 2 addr = %v", sim.Handle(2).Addr)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		topo := mustLine(t, 4, 8000)
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 42,
			Medium: airmedium.Config{ShadowSigmaDB: 4}})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.StartFlow(Flow{From: 0, To: 3, Payload: 20, Interval: 15 * time.Second, Count: 20, Poisson: true})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(10 * time.Minute)
		snap := sim.AggregateMetrics().Snapshot()
		return uint64(snap["total.tx.frames"]), stats.Delivered
	}
	tx1, d1 := run()
	tx2, d2 := run()
	if tx1 != tx2 || d1 != d2 {
		t.Errorf("same seed diverged: tx %d/%d delivered %d/%d", tx1, tx2, d1, d2)
	}
	_ = packet.Broadcast
}

func TestEnergyReport(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Before any time elapses, the report is an error.
	if _, err := sim.EnergyReport(energy.DefaultProfile(), 3000); err == nil {
		t.Error("zero-window energy report: want error")
	}
	sim.Run(time.Hour)
	report, err := sim.EnergyReport(energy.DefaultProfile(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 3 {
		t.Fatalf("report has %d rows, want 3", len(report))
	}
	for _, ne := range report {
		if ne.ChargeMAH <= 0 || ne.MeanCurrentMA <= 0 || ne.BatteryLife <= 0 {
			t.Errorf("node %d energy = %+v, want positive", ne.Index, ne)
		}
		// A mostly-listening node draws close to the RX floor.
		if ne.MeanCurrentMA < 40 || ne.MeanCurrentMA > 60 {
			t.Errorf("node %d mean current = %v mA, want ≈48", ne.Index, ne.MeanCurrentMA)
		}
	}
}

func TestMobilityUpdatesPositions(t *testing.T) {
	topo := mustLine(t, 3, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	model, err := geo.NewRandomWaypoint(3, 5000, 5000, 10, 10, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.StartMobility(model, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	before := make([]geo.Point, 3)
	for i := range before {
		p, err := sim.Medium.Position(sim.Handle(i).Station)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = p
	}
	sim.Run(10 * time.Minute)
	moved := 0
	for i := range before {
		p, err := sim.Medium.Position(sim.Handle(i).Station)
		if err != nil {
			t.Fatal(err)
		}
		if p != before[i] {
			moved++
		}
	}
	if moved != 3 {
		t.Errorf("%d/3 nodes moved under mobility", moved)
	}
	// Validation.
	if err := sim.StartMobility(nil, time.Second); err == nil {
		t.Error("nil model: want error")
	}
	if err := sim.StartMobility(model, 0); err == nil {
		t.Error("zero interval: want error")
	}
}

func TestSleepCycle(t *testing.T) {
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 2*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	// Node 1 sleeps 90% of the time.
	if err := sim.StartSleepCycle(1, 10*time.Second, 90*time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run(20 * time.Minute)
	h := sim.Handle(1)
	if h.sleepAccum == 0 {
		t.Fatal("sleep accumulated no time")
	}
	frac := float64(h.sleepAccum) / float64(20*time.Minute)
	if frac < 0.7 || frac > 0.95 {
		t.Errorf("sleep fraction = %v, want ≈0.9", frac)
	}
	// The sleeper missed most inbound frames.
	ms := sim.Medium.Stats()
	if ms.LostNotListening == 0 {
		t.Error("no frames lost to sleeping receiver")
	}
	// Energy reflects the sleep.
	report, err := sim.EnergyReport(energy.DefaultProfile(), 3000)
	if err != nil {
		t.Fatal(err)
	}
	if report[1].MeanCurrentMA >= report[0].MeanCurrentMA {
		t.Errorf("sleeper draws %v mA vs awake %v mA, want less",
			report[1].MeanCurrentMA, report[0].MeanCurrentMA)
	}
	// Validation.
	if err := sim.StartSleepCycle(9, time.Second, time.Second); err == nil {
		t.Error("out-of-range node: want error")
	}
	if err := sim.StartSleepCycle(0, 0, time.Second); err == nil {
		t.Error("zero awake: want error")
	}
}

func TestInvariantsHoldAfterBusyRun(t *testing.T) {
	topo, err := geo.ConnectedRandomGeometric(10, 30000, 30000, 12000, 21, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 10*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	for i := 0; i < 10; i++ {
		if _, err := sim.StartFlow(Flow{
			From: i, To: (i + 5) % 10, Payload: 24,
			Interval: 30 * time.Second, Poisson: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Failure injection mid-run must not break the books.
	sim.Run(10 * time.Minute)
	if err := sim.Kill(3); err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants violated:\n%v", err)
	}
}

// TestChaosScenario stacks every failure mode the simulator offers —
// partition, node death, mobility, and sleep — on one long run and checks
// the books still balance and the mesh still delivers what physics allows.
func TestChaosScenario(t *testing.T) {
	topo, err := geo.ConnectedRandomGeometric(12, 35000, 35000, 12000, 77, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastNode()
	cfg.Routing = routing.Config{EntryTTL: 60 * time.Second, Poisoning: true}
	sim, err := New(Config{Topology: topo, Node: cfg, Seed: 77, TraceCapacity: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 30*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	var all []*TrafficStats
	for i := 0; i < 12; i++ {
		st, err := sim.StartFlow(Flow{
			From: i, To: (i + 6) % 12, Payload: 20,
			Interval: 45 * time.Second, Poisson: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, st)
	}
	// Stagger the chaos.
	sim.Run(5 * time.Minute)
	if err := sim.Partition([]int{0, 1, 2}, []int{9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)
	if err := sim.Kill(5); err != nil {
		t.Fatal(err)
	}
	model, err := geo.NewRandomWaypoint(12, 35000, 35000, 3, 3, time.Minute, 77)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.StartMobility(model, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.StartSleepCycle(7, 20*time.Second, 40*time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)
	if err := sim.Heal([]int{0, 1, 2}, []int{9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)

	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants under chaos:\n%v", err)
	}
	total := MergeStats(all)
	if total.Offered == 0 {
		t.Fatal("no traffic offered")
	}
	// Under partition + death + sleep we cannot demand high PDR, but the
	// mesh must keep delivering something and never double-deliver.
	if total.Delivered == 0 {
		t.Error("chaos silenced the mesh entirely")
	}
	if total.Delivered > total.Accepted {
		t.Errorf("delivered %d > accepted %d: duplication", total.Delivered, total.Accepted)
	}
}

func TestReactiveProtocolOnPHY(t *testing.T) {
	topo := mustLine(t, 4, 8000)
	sim, err := New(Config{
		Topology: topo,
		Protocol: forward.KindReactive,
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reactive needs no warm-up: the first send triggers discovery.
	dst := collect(sim.Handle(3))
	if err := sim.Handle(0).Proto.Send(sim.Handle(3).Addr, []byte("on demand")); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)
	if got := len(dst.msgs); got != 1 {
		t.Fatalf("reactive delivery over PHY: %d msgs, want 1", got)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("reactive invariants:\n%v", err)
	}
}

func TestInvariantsAllProtocols(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	for _, kind := range []forward.Kind{forward.KindProactive, forward.KindFlooding, forward.KindReactive} {
		sim, err := New(Config{Topology: topo, Protocol: kind, Node: fastNode(), Seed: 32})
		if err != nil {
			t.Fatal(err)
		}
		_ = sim.Handle(0).Proto.Send(sim.Handle(2).Addr, []byte("x"))
		sim.Run(10 * time.Minute)
		if err := sim.CheckInvariants(); err != nil {
			t.Errorf("protocol %s invariants:\n%v", kind, err)
		}
	}
}

// TestPacketTraceRoundTrip is the observability acceptance test: one
// multi-hop delivery and one drop, streamed through the JSONL sink,
// re-read, and filtered by trace ID into the packet's reconstructed
// journey with the drop reason intact.
func TestPacketTraceRoundTrip(t *testing.T) {
	topo := mustLine(t, 3, 8000) // adjacent-only links: 0->2 must relay via 1
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 11, TraceCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	var sink bytes.Buffer
	sim.Tracer.SetSink(&sink)

	// Delivery case: a datagram that must be forwarded by node 0002.
	payload := []byte("traced payload")
	dst := collect(sim.Handle(2))
	if err := sim.Handle(0).Proto.Send(sim.Handle(2).Addr, payload); err != nil {
		t.Fatal(err)
	}
	sim.Run(30 * time.Second)
	if len(dst.msgs) != 1 {
		t.Fatalf("destination got %d messages, want 1", len(dst.msgs))
	}

	// Drop case: no route to an address outside the mesh.
	ghost := baseAddress + 100
	if err := sim.Handle(0).Proto.Send(ghost, payload); err == nil {
		t.Fatal("send to unrouted address should fail")
	}

	// The trace ID is recomputed from the packet's hop-invariant fields —
	// exactly what every hop derived on its own.
	wantID := trace.TraceID((&packet.Packet{
		Dst: sim.Handle(2).Addr, Src: sim.Handle(0).Addr,
		Type: packet.TypeData, Payload: payload,
	}).TraceID())

	evs, err := trace.ReadJSONL(&sink)
	if err != nil {
		t.Fatalf("sink JSONL did not round-trip: %v", err)
	}
	journey := trace.Filter(evs, wantID)
	if len(journey) == 0 {
		t.Fatal("no events carry the delivery trace ID")
	}
	type hop struct {
		node string
		kind trace.Kind
		sub  string
	}
	for _, want := range []hop{
		{"0001", trace.KindApp, "origin"},
		{"0001", trace.KindTx, "tx DATA"},
		{"0002", trace.KindRx, "rx DATA"},
		{"0002", trace.KindRoute, "forward"},
		{"0002", trace.KindTx, "tx DATA"},
		{"0003", trace.KindRx, "rx DATA"},
		{"0003", trace.KindApp, "delivered"},
	} {
		found := false
		for _, ev := range journey {
			if ev.Node == want.node && ev.Kind == want.kind && strings.Contains(ev.Detail, want.sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("journey missing %s %s %q:\n%v", want.node, want.kind, want.sub, journey)
		}
	}
	// Journeys are chronological as filtered.
	for i := 1; i < len(journey); i++ {
		if journey[i].At.Before(journey[i-1].At) {
			t.Fatal("journey events out of order")
		}
	}

	// The dropped packet's journey ends at the origin with the reason.
	dropID := trace.TraceID((&packet.Packet{
		Dst: ghost, Src: sim.Handle(0).Addr,
		Type: packet.TypeData, Payload: payload,
	}).TraceID())
	dropJourney := trace.Filter(evs, dropID)
	if len(dropJourney) == 0 {
		t.Fatal("no events carry the drop trace ID")
	}
	last := dropJourney[len(dropJourney)-1]
	if last.Kind != trace.KindDrop || !strings.Contains(last.Detail, "no route") {
		t.Errorf("drop journey ends with %v %q, want drop with no-route reason", last.Kind, last.Detail)
	}

	// The in-memory ring agrees with what the sink streamed.
	ringJourney := trace.Filter(sim.Tracer.Events(), wantID)
	if len(ringJourney) != len(journey) {
		t.Errorf("ring has %d journey events, sink %d", len(ringJourney), len(journey))
	}
}

// TestSimLevelMetrics: StartFlow feeds the simulation-level registry, and
// AggregateMetrics exposes it under the sim. prefix.
func TestSimLevelMetrics(t *testing.T) {
	topo := mustLine(t, 3, 1500)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	stats, err := sim.StartFlow(Flow{From: 0, To: 2, Payload: 16, Interval: 20 * time.Second, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)
	if stats.Delivered == 0 {
		t.Fatal("flow delivered nothing")
	}
	snap := sim.AggregateMetrics().Snapshot()
	if got := snap["sim.flows.offered"]; got != float64(stats.Offered) {
		t.Errorf("sim.flows.offered = %v, want %d", got, stats.Offered)
	}
	if got := snap["sim.flows.delivered"]; got != float64(stats.Delivered) {
		t.Errorf("sim.flows.delivered = %v, want %d", got, stats.Delivered)
	}
	if got := snap["sim.e2e.latency_ms.count"]; got != float64(stats.Delivered) {
		t.Errorf("sim.e2e.latency_ms.count = %v, want %d", got, stats.Delivered)
	}
	if snap["sim.e2e.latency_ms.mean"] <= 0 {
		t.Error("e2e latency histogram has no positive mean")
	}
	// Node-level duty-cycle gauge flows through aggregation too.
	if _, ok := snap["node.0001.dutycycle.utilization"]; !ok {
		t.Error("aggregate missing node duty-cycle utilization gauge")
	}
}

// inbox keeps what a node's delivery callbacks receive.
type inbox struct {
	msgs    []core.AppMessage
	streams []core.StreamEvent
}

// collect chains an inbox in front of any OnMessage/OnStreamDone
// already installed on h, the way StartFlow chains its observer.
func collect(h *Handle) *inbox {
	in := &inbox{}
	prevMsg, prevStream := h.OnMessage, h.OnStreamDone
	h.OnMessage = func(m core.AppMessage) {
		in.msgs = append(in.msgs, m)
		if prevMsg != nil {
			prevMsg(m)
		}
	}
	h.OnStreamDone = func(ev core.StreamEvent) {
		in.streams = append(in.streams, ev)
		if prevStream != nil {
			prevStream(ev)
		}
	}
	return in
}

// collectAll chains an inbox onto every node, indexed like Sim.Handle.
func collectAll(s *Sim) []*inbox {
	all := make([]*inbox, s.N())
	for i := range all {
		all[i] = collect(s.Handle(i))
	}
	return all
}
