package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/loraphy"
)

// TestRebuildKeepsWhatLivesOnTheHandle drives every way an engine is
// replaced — a fault-plan clock skew, a crash→restart, a hang→reboot —
// under both strategies with a core engine, and asserts the one rebuild
// path carries the handle's state into the fresh engine: the skewed HELLO
// period, the pinned spreading factor, the host control hook. It ends
// with the node running: Hang must accept it again.
func TestRebuildKeepsWhatLivesOnTheHandle(t *testing.T) {
	const node = 1
	cycles := []struct {
		name  string
		crash bool
		drive func(t *testing.T, sim *Sim)
	}{
		{name: "skew-rebuild", drive: func(*testing.T, *Sim) {}},
		{name: "crash-restart", crash: true, drive: func(t *testing.T, sim *Sim) {
			// Wedged before the crash: the restart must clear that too.
			if err := sim.Hang(node); err != nil {
				t.Fatal(err)
			}
			sim.Run(time.Minute)
			if got := sim.Metrics().Counter("fault.restart").Value(); got != 1 {
				t.Fatalf("fault.restart = %d, want 1", got)
			}
		}},
		{name: "hang-reboot", drive: func(t *testing.T, sim *Sim) {
			if err := sim.Hang(node); err != nil {
				t.Fatal(err)
			}
			if !sim.rebootNode(node, "test") {
				t.Fatal("reboot did not bring the node back")
			}
		}},
	}
	for _, kind := range []forward.Kind{forward.KindProactive, forward.KindSlotted} {
		for _, c := range cycles {
			t.Run(string(kind)+"/"+c.name, func(t *testing.T) {
				sim, err := New(Config{Topology: mustLine(t, 3, 8000), Protocol: kind, Node: fastNode(), Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				h := sim.Handle(node)
				first := h.Mesher
				h.sfOverride = 9 // as hostControl pins it on OpSetConfig
				plan := &faults.Plan{Name: c.name, ClockSkews: []faults.ClockSkew{{Node: node, Factor: 2}}}
				if c.crash {
					plan.Crashes = []faults.Crash{{Node: node,
						At: faults.Duration(10 * time.Second), Downtime: faults.Duration(20 * time.Second)}}
				}
				if err := sim.ApplyFaultPlan(plan); err != nil {
					t.Fatal(err)
				}
				c.drive(t, sim)

				if h.Mesher == first {
					t.Fatal("engine was not rebuilt")
				}
				cfg := h.Mesher.Config()
				if want := 2 * fastNode().HelloPeriod; cfg.HelloPeriod != want {
					t.Errorf("HELLO period = %v, want the skewed %v", cfg.HelloPeriod, want)
				}
				if cfg.Phy.SpreadingFactor != loraphy.SF9 || h.env.phy.SpreadingFactor != loraphy.SF9 {
					t.Errorf("SF = engine %v / radio %v, want the pinned SF9",
						cfg.Phy.SpreadingFactor, h.env.phy.SpreadingFactor)
				}
				if cfg.OnControl == nil {
					t.Error("rebuilt engine lost the host control hook")
				}
				if h.down || h.hung {
					t.Errorf("after the cycle down=%v hung=%v, want a running node", h.down, h.hung)
				}
				if err := sim.Hang(node); err != nil {
					t.Errorf("Hang after the cycle: %v", err)
				}
			})
		}
	}
}

// TestClockSkewNeedsAHelloTimer: the table-free strategies have no HELLO
// timer to skew, so a plan that names one is refused, not ignored.
func TestClockSkewNeedsAHelloTimer(t *testing.T) {
	for _, kind := range []forward.Kind{forward.KindFlooding, forward.KindReactive, forward.KindICN} {
		sim, err := New(Config{Topology: mustLine(t, 2, 1000), Protocol: kind, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan := &faults.Plan{ClockSkews: []faults.ClockSkew{{Node: 1, Factor: 2}}}
		if err := sim.ApplyFaultPlan(plan); err == nil {
			t.Errorf("%s: clock_skews accepted", kind)
		}
		if sim.injector != nil {
			t.Errorf("%s: a refused plan armed an injector", kind)
		}
	}
}

// TestSleepCycleLeavesACrashedRadioOff: a sleep schedule's wake edge must
// not switch a crashed node's receiver back on. With the radio off the
// medium loses the neighbour's beacons as not-listening; were it on, each
// would reach the dead node and be counted as a drop.fault.down.
func TestSleepCycleLeavesACrashedRadioOff(t *testing.T) {
	sim, err := New(Config{Topology: mustLine(t, 2, 1000), Node: fastNode(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.StartSleepCycle(1, 10*time.Second, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.ApplyFaultPlan(&faults.Plan{
		Crashes: []faults.Crash{{Node: 1, At: faults.Duration(5 * time.Second)}},
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run(6 * time.Second)
	inFlight := sim.Metrics().Counter("drop.fault.down").Value()
	sim.Run(5 * time.Minute)
	if got := sim.Metrics().Counter("drop.fault.down").Value(); got != inFlight {
		t.Errorf("crashed node's radio heard %d frames after the crash", got-inFlight)
	}
}
