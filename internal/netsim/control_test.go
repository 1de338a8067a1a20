package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/control"
)

// ctlState returns a desired-state document whose base key matches the
// test mesh key.
func ctlState() *control.State {
	return &control.State{
		Version: 1,
		NetKey:  "2b7e151628aed2a6abf7158809cf4f3c",
		Defaults: control.NodeSpec{
			HelloPeriod: control.Duration(8 * time.Second),
		},
	}
}

// ctlSim builds a secured 4-node chain with the health monitor armed —
// the standard fixture for controller scenarios.
func ctlSim(t *testing.T, seed int64) *Sim {
	t.Helper()
	sim, err := New(Config{
		Topology:       mustLine(t, 4, 8000),
		Node:           fastNode(),
		Seed:           seed,
		SecKey:         &secTestKey,
		HealthInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestAttachControllerValidation(t *testing.T) {
	// Needs the health monitor.
	sim, err := New(Config{Topology: mustLine(t, 3, 8000), Node: fastNode(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AttachController(control.Config{State: ctlState()}); err == nil {
		t.Error("attach without a health monitor: want error")
	}

	sim = ctlSim(t, 1)
	if _, err := sim.AttachController(control.Config{State: ctlState()}); err != nil {
		t.Fatalf("valid attach failed: %v", err)
	}
	if _, err := sim.AttachController(control.Config{State: ctlState()}); err == nil {
		t.Error("double attach: want error")
	}
}

// TestControllerReconcilesConfig pushes a desired HELLO period onto a
// live mesh: every node (including the controller's own host, applied
// locally) must converge to the document, and the controller must know
// it converged.
func TestControllerReconcilesConfig(t *testing.T) {
	sim := ctlSim(t, 3)
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no route convergence")
	}
	ctl, err := sim.AttachController(control.Config{
		State:         ctlState(),
		PollInterval:  5 * time.Second,
		RetryInterval: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.RunUntil(ctl.Converged, 5*time.Second, 4*time.Minute); !ok {
		t.Fatalf("controller never converged; journal:\n%s", strings.Join(ctl.Actions(), "\n"))
	}
	for i := 0; i < sim.N(); i++ {
		if got := sim.Handle(i).Mesher.Config().HelloPeriod; got != 8*time.Second {
			t.Errorf("node %d hello period = %v, want 8s", i, got)
		}
	}
	snap := sim.AggregateMetrics().Snapshot()
	if snap["ctl.converged"] != 1 {
		t.Error("ctl.converged gauge not exported as 1")
	}
	if snap["ctl.acks.ok"] < float64(sim.N()) {
		t.Errorf("ctl.acks.ok = %v, want >= %d", snap["ctl.acks.ok"], sim.N())
	}
}

// TestControllerRekeyLossFree rotates the network key under live
// traffic: after the three-phase rollout every node seals under the
// epoch-1 key, and no frame in either direction ever failed
// authentication — the property the stage/rotate/commit waves exist for.
func TestControllerRekeyLossFree(t *testing.T) {
	sim := ctlSim(t, 5)
	if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
		t.Fatal("no route convergence")
	}
	stats, err := sim.StartFlow(Flow{From: 0, To: 3, Payload: 24, Interval: 15 * time.Second, Count: 24})
	if err != nil {
		t.Fatal(err)
	}
	st := ctlState()
	st.Version = 0 // isolate the rekey: no config epoch in flight
	st.KeyEpoch = 1
	ctl, err := sim.AttachController(control.Config{
		State:         st,
		PollInterval:  5 * time.Second,
		RetryInterval: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.RunUntil(ctl.Converged, 5*time.Second, 5*time.Minute); !ok {
		t.Fatalf("rekey never converged; journal:\n%s", strings.Join(ctl.Actions(), "\n"))
	}
	sim.Run(6 * time.Minute) // drain the rest of the flow on the new key

	want := control.KeyForEpoch(secTestKey, 1)
	for i := 0; i < sim.N(); i++ {
		if sim.Handle(i).Sec.NetKey() != want {
			t.Errorf("node %d did not rotate to the epoch-1 key", i)
		}
	}
	snap := sim.AggregateMetrics().Snapshot()
	if drops := snap["total.sec.drop.auth"] + snap["total.sec.drop.replay"]; drops != 0 {
		t.Errorf("rollout dropped %v frames as hostile — not loss-free", drops)
	}
	// The only losses allowed are air collisions with the command
	// traffic itself — never a cryptographic drop, which is what
	// "loss-free rollout" means (the zero-drop assertion above).
	if pdr := stats.DeliveryRatio(); pdr < 0.75 {
		t.Errorf("delivery under rekey = %.2f, want >= 0.75", pdr)
	}
	if snap["ctl.key.epoch"] != 1 {
		t.Errorf("ctl.key.epoch = %v, want 1", snap["ctl.key.epoch"])
	}
}

// TestControllerRecoversHungNode is the MTTR acceptance bar for the
// silent-node playbook, across seeds: a wedged node (powered, radio
// deaf, counters frozen) must be detected silent, the in-band reboot
// must exhaust its retries against the dead engine, and the escalation
// power-cycle must bring the node back — all within 24 HELLO intervals
// of virtual time. Without a controller the node stays wedged forever.
func TestControllerRecoversHungNode(t *testing.T) {
	const horizon = 2 * time.Minute // 24 of fastNode's 5 s HELLO intervals
	for _, seed := range []int64{1, 2, 3} {
		// Controller off: detection fires, nothing recovers.
		sim := ctlSim(t, seed)
		if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
			t.Fatalf("seed %d: no route convergence", seed)
		}
		if err := sim.Hang(2); err != nil {
			t.Fatal(err)
		}
		sim.Run(horizon)
		if !sim.handles[2].hung {
			t.Fatalf("seed %d: node un-wedged itself without a controller", seed)
		}
		if sim.AggregateMetrics().Snapshot()["health.violation.silent"] == 0 {
			t.Fatalf("seed %d: silent detector never fired", seed)
		}

		// Controller on: same scenario, same clocks.
		sim = ctlSim(t, seed)
		if _, ok := sim.TimeToConvergence(time.Second, 5*time.Minute); !ok {
			t.Fatalf("seed %d: no route convergence", seed)
		}
		ctl, err := sim.AttachController(control.Config{
			State:         ctlState(),
			PollInterval:  5 * time.Second,
			RetryInterval: 10 * time.Second,
			MaxRetries:    2,
			Cooldown:      time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Hang(2); err != nil {
			t.Fatal(err)
		}
		recovered, ok := sim.RunUntil(func() bool { return !sim.handles[2].hung }, 5*time.Second, horizon)
		if !ok {
			t.Fatalf("seed %d: hung node not recovered within %v; journal:\n%s",
				seed, horizon, strings.Join(ctl.Actions(), "\n"))
		}
		t.Logf("seed %d: recovered after %v", seed, recovered)
		snap := sim.AggregateMetrics().Snapshot()
		if snap["ctl.escalations"] == 0 {
			t.Errorf("seed %d: recovery did not go through the escalation path", seed)
		}
		if snap["sim.fault.reboot"] == 0 {
			t.Errorf("seed %d: no power-cycle recorded", seed)
		}
	}
}

// TestControllerActionsByteIdentical extends the chaos-suite replay bar
// to the control plane: the same (scenario, seed, state document) must
// produce a byte-identical controller action journal, and a different
// seed a different one — every decision, retry, and escalation is a
// pure function of the run's inputs.
func TestControllerActionsByteIdentical(t *testing.T) {
	run := func(seed int64) string {
		sim := ctlSim(t, seed)
		st := ctlState()
		st.KeyEpoch = 1
		ctl, err := sim.AttachController(control.Config{
			State:         st,
			PollInterval:  5 * time.Second,
			RetryInterval: 10 * time.Second,
			MaxRetries:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(time.Minute)
		if err := sim.Hang(2); err != nil {
			t.Fatal(err)
		}
		sim.Run(4 * time.Minute)
		return strings.Join(ctl.Actions(), "\n")
	}
	a, b := run(7), run(7)
	if a == "" {
		t.Fatal("empty action journal")
	}
	if a != b {
		t.Fatalf("same (scenario, seed) produced different journals:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if c := run(8); a == c {
		t.Error("different seed produced an identical journal")
	}
}
