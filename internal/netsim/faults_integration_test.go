package netsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/routing"
)

// Integration tests for the fault-injection layer: plans applied to real
// simulations, composed with the sim's own Partition/Heal and traffic
// machinery, with the accounting invariants checked after every scenario.

// replayPlan is a busy plan exercising every injector mechanism at once.
func replayPlan() *faults.Plan {
	return &faults.Plan{
		Name: "replay",
		Links: []faults.LinkFault{
			{From: 1, To: 2, Symmetric: true, Kind: faults.KindBernoulli, P: 0.25},
		},
		Flaps: []faults.Flap{
			{A: 0, B: 1, Start: faults.Duration(2 * time.Minute),
				Period: faults.Duration(90 * time.Second),
				Down:   faults.Duration(30 * time.Second), Count: 3},
		},
		Crashes: []faults.Crash{
			{Node: 2, At: faults.Duration(4 * time.Minute), Downtime: faults.Duration(time.Minute)},
		},
		Corrupt: &faults.Corrupt{Rate: 0.05, MaxBits: 3},
	}
}

func TestFaultPlanReplayByteIdentical(t *testing.T) {
	// The acceptance bar for chaos debugging: a failing scenario must be
	// reproducible from (plan, seed) alone. Two runs with the same pair
	// must emit byte-for-byte identical JSONL traces — same drops, same
	// corruption, same timestamps — and a different seed must not.
	run := func(seed int64) []byte {
		topo := mustLine(t, 4, 8000)
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: seed, TraceCapacity: 64})
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
		if err := sim.CheckInvariants(); err != nil {
			t.Errorf("seed %d invariants:\n%v", seed, err)
		}
		if len(sim.FaultStats()) == 0 {
			t.Errorf("seed %d: busy plan injected nothing", seed)
		}
		return sink.Bytes()
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("no trace emitted")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same (plan, seed) produced different JSONL traces")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Error("different seed produced an identical trace")
	}
}

func TestFaultPlanCrashRestartColdBoot(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 3, TraceCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence before the crash")
	}
	preLen := sim.Handle(1).Mesher.Table().Len()
	if preLen == 0 {
		t.Fatal("converged relay has an empty table")
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name: "crash",
		Crashes: []faults.Crash{
			{Node: 1, At: faults.Duration(10 * time.Second), Downtime: faults.Duration(60 * time.Second)},
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Probe at precise virtual times: mid-downtime the node is deaf and
	// down; one tick after the restart it is up with a cold (empty)
	// routing table — the reboot lost everything.
	var midDown, upAfter bool
	var coldLen int
	var midErr error
	sim.Sched.MustAfter(40*time.Second, func() {
		midDown = sim.Handle(1).down
		// The dead engine's counters and airtime count once while the
		// node is down, not once as live and once as retired.
		midErr = sim.CheckInvariants()
	})
	sim.Sched.MustAfter(70*time.Second+10*time.Millisecond, func() {
		upAfter = !sim.Handle(1).down
		coldLen = sim.Handle(1).Mesher.Table().Len()
	})
	sim.Run(6 * time.Minute)

	if !midDown {
		t.Error("node not down mid-downtime")
	}
	if midErr != nil {
		t.Errorf("invariants mid-downtime:\n%v", midErr)
	}
	if !upAfter {
		t.Error("node not restarted after downtime")
	}
	if coldLen >= preLen {
		t.Errorf("restart kept %d routes (had %d before): table not lost", coldLen, preLen)
	}
	if got := sim.Metrics().Counter("fault.crash").Value(); got != 1 {
		t.Errorf("fault.crash = %d, want 1", got)
	}
	if got := sim.Metrics().Counter("fault.restart").Value(); got != 1 {
		t.Errorf("fault.restart = %d, want 1", got)
	}
	if !sim.Converged() {
		t.Error("mesh never re-converged after the restart")
	}
	if err := sim.CheckRoutingLoops(); err != nil {
		t.Errorf("routing loops after restart:\n%v", err)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants across crash/restart:\n%v", err)
	}
}

func TestFaultPlanAsymmetricLink(t *testing.T) {
	// A one-way block: node 1 never hears node 0, while node 0 hears
	// node 1 fine. The routing outcome is necessarily asymmetric.
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name:  "asym",
		Links: []faults.LinkFault{{From: 0, To: 1, Kind: faults.KindBlock}},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Minute)

	if _, ok := sim.Handle(0).Mesher.Table().NextHop(sim.Handle(1).Addr); !ok {
		t.Error("node 0 should hear node 1's HELLOs and have a route")
	}
	if _, ok := sim.Handle(1).Mesher.Table().NextHop(sim.Handle(0).Addr); ok {
		t.Error("node 1 heard node 0 through a blocked direction")
	}
	if got := sim.FaultStats()[faults.ReasonLink]; got == 0 {
		t.Error("block dropped no frames")
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants with asymmetric link:\n%v", err)
	}
}

func TestFaultPlanCorruptionAccounting(t *testing.T) {
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name:    "corrupt",
		Corrupt: &faults.Corrupt{Rate: 0.5, MaxBits: 4},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)

	if got := sim.FaultStats()[faults.ReasonCorrupt]; got == 0 {
		t.Fatal("50% corruption rate caught nothing")
	}
	snap := sim.AggregateMetrics().Snapshot()
	if snap["sim.drop.fault.corrupt"] == 0 {
		t.Error("detected corruption not counted as drop.fault.corrupt")
	}
	// Detected corruption drops before the engine; it must reconcile in
	// the delivered == received + fault-dropped ledger.
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants under corruption:\n%v", err)
	}
}

func TestFaultPlanClockSkew(t *testing.T) {
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 6, TraceCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name:       "skew",
		ClockSkews: []faults.ClockSkew{{Node: 1, Factor: 2.0}},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)

	snap := sim.AggregateMetrics().Snapshot()
	fast := snap["node."+sim.Handle(0).Addr.String()+".hello.sent"]
	slow := snap["node."+sim.Handle(1).Addr.String()+".hello.sent"]
	if slow >= fast {
		t.Errorf("skewed node beaconed %v times vs %v: 2x slower crystal had no effect", slow, fast)
	}
	// Even with the drifted beacon cadence the pair still converges —
	// the skew stresses, not breaks, neighbor freshness.
	if !sim.Converged() {
		t.Error("clock skew broke convergence entirely")
	}
	skewTraced := false
	for _, ev := range sim.Tracer.Events() {
		if strings.Contains(ev.Detail, "clock skew") {
			skewTraced = true
			break
		}
	}
	if !skewTraced {
		t.Error("clock skew application not traced")
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants under clock skew:\n%v", err)
	}
}

func TestPartitionDuringFlapWindowAndHealMidStream(t *testing.T) {
	// Compose the sim's own Partition/Heal with a fault-plan flap: the
	// partition lands inside the flap's down-window, a reliable stream
	// launches into the outage, and the heal arrives while the stream is
	// mid-backoff. The capped-backoff retransmit must carry the stream
	// through to completion once both impairments clear.
	node := fastNode()
	node.Routing = routing.Config{EntryTTL: 10 * time.Minute} // routes outlive the outage
	topo := mustLine(t, 4, 8000)
	sim, err := New(Config{Topology: topo, Node: node, Seed: 21, TraceCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no convergence")
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name: "flap+partition",
		Flaps: []faults.Flap{
			{A: 0, B: 1, Start: faults.Duration(30 * time.Second),
				Down: faults.Duration(60 * time.Second)}, // single window [30s, 90s)
		},
	}); err != nil {
		t.Fatal(err)
	}

	// t=35s: the flap holds link 0-1 down; launch a stream into it.
	sim.Run(35 * time.Second)
	src, dst := sim.Handle(0), sim.Handle(3)
	if _, err := src.Mesher.SendReliable(dst.Addr, bytes.Repeat([]byte("chaos"), 40)); err != nil {
		t.Fatal(err)
	}

	// t=50s: still inside the flap window, partition the middle link too.
	sim.Run(15 * time.Second)
	if err := sim.Partition([]int{0, 1}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}

	// t=70s: heal while the stream is deep in its backoff window (the
	// flap still holds 0-1 down until t=90s).
	sim.Run(20 * time.Second)
	if err := sim.Heal([]int{0, 1}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}

	sim.Run(5 * time.Minute)
	evs := src.StreamEvents
	if len(evs) != 1 {
		t.Fatalf("got %d stream events, want 1", len(evs))
	}
	if evs[0].Err != nil {
		t.Fatalf("stream failed despite heal within retry budget: %v", evs[0].Err)
	}
	if evs[0].Retransmissions == 0 {
		t.Error("stream claims zero retransmissions through a dead link")
	}
	if got := sim.FaultStats()[faults.ReasonFlap]; got == 0 {
		t.Error("flap window dropped no frames")
	}
	if err := sim.CheckRoutingLoops(); err != nil {
		t.Errorf("routing loops after heal:\n%v", err)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Errorf("invariants after flap+partition+heal:\n%v", err)
	}
}

func TestFaultPlanValidationAndDoubleApply(t *testing.T) {
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(nil); err == nil {
		t.Error("nil plan accepted")
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Crashes: []faults.Crash{{Node: 5}},
	}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{Name: "second"}); err == nil {
		t.Error("second plan accepted")
	}
	if sim.injector == nil {
		t.Error("applied plan armed no injector")
	}
}
