package netsim

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/airmedium"
	"repro/internal/faults"
	"repro/internal/meshsec"
	"repro/internal/packet"
)

var secTestKey = meshsec.Key{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// attackPlan arms one attacker with every hostile behavior next to the
// middle of a 3-node chain.
func attackPlan() *faults.Plan {
	return &faults.Plan{
		Name: "attacker",
		Attackers: []faults.Attacker{{
			Node:   1,
			Start:  faults.Duration(time.Minute),
			Period: faults.Duration(15 * time.Second),
			Replay: true, ForgeHello: true, BitFlip: true,
		}},
	}
}

// TestSecuredMeshDeliveryParity runs the same multi-hop workload with
// security off and on: the secured mesh must converge and deliver within
// a few points of plaintext (the MIC and header are pure overhead, not a
// protocol change).
func TestSecuredMeshDeliveryParity(t *testing.T) {
	run := func(key *meshsec.Key) (float64, *Sim) {
		topo := mustLine(t, 4, 8000)
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 11, SecKey: key})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
			t.Fatal("no convergence")
		}
		stats, err := sim.StartFlow(Flow{From: 0, To: 3, Payload: 24, Interval: 20 * time.Second, Count: 10})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(5 * time.Minute)
		if err := sim.CheckInvariants(); err != nil {
			t.Errorf("invariants (secured=%v):\n%v", key != nil, err)
		}
		return stats.DeliveryRatio(), sim
	}

	plainPDR, _ := run(nil)
	securedPDR, sim := run(&secTestKey)
	if securedPDR < plainPDR-0.05 {
		t.Errorf("secured delivery %.2f more than 5 points below plaintext %.2f", securedPDR, plainPDR)
	}
	snap := sim.AggregateMetrics().Snapshot()
	if snap["total.sec.tx.sealed"] == 0 {
		t.Error("secured run sealed no frames")
	}
	if snap["total.sec.rx.opened"] == 0 {
		t.Error("secured run opened no frames")
	}
	if snap["total.sec.drop.auth"]+snap["total.sec.drop.replay"] != 0 {
		t.Errorf("benign secured run dropped frames as hostile: auth=%v replay=%v",
			snap["total.sec.drop.auth"], snap["total.sec.drop.replay"])
	}
}

// TestSecuredReplayByteIdentical extends the chaos acceptance bar to
// secured runs: same (key, plan, seed) must reproduce the exact JSONL
// trace, so a failing secured scenario replays from its seed.
func TestSecuredReplayByteIdentical(t *testing.T) {
	run := func(seed int64) []byte {
		topo := mustLine(t, 4, 8000)
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: seed,
			SecKey: &secTestKey, TraceCapacity: 64})
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
		t.Fatal("same (key, plan, seed) produced different JSONL traces")
	}
	if c := run(8); bytes.Equal(a, c) {
		t.Error("different seed produced an identical trace")
	}
}

// TestSecuredAttackerAllDropped is the tier-1 acceptance check for the
// attacker model: across three seeds, a secured mesh under active
// replay/forgery/tampering admits zero hostile frames — nothing reaches
// an application, no forged address enters any routing table, and every
// hostile frame is accounted under a sec.drop.* counter — while delivery
// stays serviceable.
func TestSecuredAttackerAllDropped(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		topo := mustLine(t, 3, 8000)
		sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: seed,
			SecKey: &secTestKey, TraceCapacity: 64})
		if err != nil {
			t.Fatal(err)
		}
		inboxes := collectAll(sim)
		if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
			t.Fatalf("seed %d: no convergence", seed)
		}
		if err := sim.ApplyFaultPlan(attackPlan()); err != nil {
			t.Fatal(err)
		}
		// Poisson gaps keep the flow from phase-locking with the attacker
		// cadence: a collision with a hostile transmission is jamming,
		// which the security layer explicitly does not defend against.
		stats, err := sim.StartFlow(Flow{From: 0, To: 2, Payload: 24,
			Interval: 20 * time.Second, Count: 12, Poisson: true})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(6 * time.Minute)

		snap := sim.AggregateMetrics().Snapshot()
		if snap["sim.attacker.tx.frames"] == 0 {
			t.Fatalf("seed %d: attacker injected nothing", seed)
		}
		// Hostile frames died at the security layer, not in the mesh.
		hostile := snap["total.sec.drop.auth"] + snap["total.sec.drop.replay"] + snap["total.sec.drop.legacy"]
		if hostile == 0 {
			t.Errorf("seed %d: no hostile frame accounted under sec.drop.*", seed)
		}
		// No forged address anywhere in routing state.
		for i := 0; i < sim.N(); i++ {
			h := sim.Handle(i)
			if _, ok := h.Mesher.Table().NextHop(ForgeAddr); ok {
				t.Errorf("seed %d: node %v learned a route to forged %v", seed, h.Addr, ForgeAddr)
			}
			for _, e := range h.Mesher.Table().Entries() {
				if e.Via == ForgeAddr {
					t.Errorf("seed %d: node %v routes via forged %v", seed, h.Addr, ForgeAddr)
				}
			}
			// Nothing forged or replayed reached an application: every
			// delivery's source is a real mesh address.
			for _, msg := range inboxes[i].msgs {
				if sim.ByAddr(msg.From) == nil {
					t.Errorf("seed %d: node %v delivered app payload from forged %v", seed, h.Addr, msg.From)
				}
			}
		}
		// The attacker's transmissions still occupy the channel —
		// collisions are jamming, which no MIC can prevent — so the
		// bound tolerates collision losses, not security failures.
		if stats.DeliveryRatio() < 0.6 {
			t.Errorf("seed %d: delivery %.2f under attack, want >= 0.6", seed, stats.DeliveryRatio())
		}
		if err := sim.CheckRoutingLoops(); err != nil {
			t.Errorf("seed %d: routing loops under attack:\n%v", seed, err)
		}
		if err := sim.CheckInvariants(); err != nil {
			t.Errorf("seed %d: invariants under attack:\n%v", seed, err)
		}
	}
}

// TestUnsecuredAttackerPoisonsTable is the contrast case: without
// security, the same forged HELLO walks straight into the victim's
// routing table — the vulnerability the tentpole closes.
func TestUnsecuredAttackerPoisonsTable(t *testing.T) {
	topo := mustLine(t, 3, 8000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 1, TraceCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name: "poison",
		Attackers: []faults.Attacker{{
			Node: 1, Start: faults.Duration(30 * time.Second),
			Period: faults.Duration(15 * time.Second), ForgeHello: true,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(5 * time.Minute)

	poisoned := false
	for i := 0; i < sim.N(); i++ {
		if _, ok := sim.Handle(i).Mesher.Table().NextHop(ForgeAddr); ok {
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatal("forged HELLOs did not poison any plaintext routing table; the contrast case is broken")
	}
}

// nonceMonitor is a passive receiver that records the (src, counter)
// stream of every secured frame on the air.
type nonceMonitor struct {
	recs []struct {
		at      time.Time
		src     packet.Address
		counter uint32
	}
}

func (m *nonceMonitor) OnFrame(d airmedium.Delivery) {
	p, err := packet.Unmarshal(d.Data)
	if err != nil || !p.Secured {
		return
	}
	m.recs = append(m.recs, struct {
		at      time.Time
		src     packet.Address
		counter uint32
	}{d.At, p.Src, p.Counter})
}

// TestSecuredCounterSurvivesRestart crashes and cold-restarts a secured
// node and asserts — from frames actually on the air — that it never
// reuses a frame counter: every post-restart counter exceeds the
// pre-crash maximum, because the security link lives on the handle, not
// the rebuilt engine.
func TestSecuredCounterSurvivesRestart(t *testing.T) {
	topo := mustLine(t, 2, 1000)
	sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 4, SecKey: &secTestKey})
	if err != nil {
		t.Fatal(err)
	}
	mon := &nonceMonitor{}
	if _, err := sim.Medium.AddStation(topo.Positions[0], mon); err != nil {
		t.Fatal(err)
	}
	crashAt, restartAt := 2*time.Minute, 3*time.Minute
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Name: "restart",
		Crashes: []faults.Crash{{Node: 0, At: faults.Duration(crashAt),
			Downtime: faults.Duration(restartAt - crashAt)}},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(8 * time.Minute)

	victim := sim.Handle(0).Addr
	restartTime := Epoch.Add(restartAt)
	var preMax uint32
	post := 0
	for _, r := range mon.recs {
		if r.src != victim {
			continue
		}
		if r.at.Before(restartTime) {
			if r.counter > preMax {
				preMax = r.counter
			}
			continue
		}
		post++
		if r.counter <= preMax {
			t.Fatalf("post-restart frame reused counter %d (pre-crash max %d): nonce reuse", r.counter, preMax)
		}
	}
	if preMax == 0 || post == 0 {
		t.Fatalf("monitor saw too little traffic (preMax=%d, post=%d)", preMax, post)
	}
	if got := sim.Handle(0).Sec.Counter(); got < preMax {
		t.Errorf("handle link counter %d below on-air max %d", got, preMax)
	}
}
