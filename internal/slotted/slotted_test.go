package slotted

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loraphy"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// The unit tests drive slotted nodes over an idealized loopback bus,
// isolating the TDMA gate and beacon plane from the PHY model (which
// internal/netsim's strategy tests exercise against the real medium).

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

type bus struct {
	sched *simtime.Scheduler
	envs  []*testEnv
}

type testEnv struct {
	b    *bus
	node *Node
	addr packet.Address
	rng  *rand.Rand
	phy  loraphy.Params
}

func (e *testEnv) Now() time.Time { return e.b.sched.Now() }

func (e *testEnv) Schedule(d time.Duration, fn func()) func() {
	h := e.b.sched.MustAfter(d, fn)
	return func() { e.b.sched.Cancel(h) }
}

func (e *testEnv) Transmit(frame []byte) (time.Duration, error) {
	airtime := e.phy.MustAirtime(len(frame))
	data := append([]byte(nil), frame...)
	e.b.sched.MustAfter(airtime, func() {
		for _, other := range e.b.envs {
			if other != e {
				other.node.HandleFrame(data, core.RxInfo{RSSIDBm: -80, SNRDB: 10})
			}
		}
		e.node.HandleTxDone()
	})
	return airtime, nil
}

func (e *testEnv) ChannelBusy() (bool, error)     { return false, nil }
func (e *testEnv) Deliver(msg core.AppMessage)    {}
func (e *testEnv) StreamDone(ev core.StreamEvent) {}
func (e *testEnv) Rand() float64                  { return e.rng.Float64() }

var _ core.Env = (*testEnv)(nil)

// newBus builds one started slotted node per address, all sharing the
// schedule and the given sink.
func newBus(t *testing.T, cfg Config, addrs ...packet.Address) *bus {
	t.Helper()
	b := &bus{sched: simtime.NewScheduler(t0)}
	for i, a := range addrs {
		c := cfg
		c.Core.Address = a
		env := &testEnv{b: b, addr: a, rng: rand.New(rand.NewSource(int64(i) + 1)), phy: loraphy.DefaultParams()}
		n, err := NewNode(c, env)
		if err != nil {
			t.Fatal(err)
		}
		env.node = n
		b.envs = append(b.envs, env)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func snapshot(n *Node, name string) float64 { return n.Metrics().Snapshot()[name] }

type stubGate struct{}

func (stubGate) Clearance(time.Time, packet.Type, time.Duration) time.Duration { return 0 }

func TestNewNodeValidation(t *testing.T) {
	env := &testEnv{b: &bus{sched: simtime.NewScheduler(t0)}, rng: rand.New(rand.NewSource(1)), phy: loraphy.DefaultParams()}

	cfg := Config{Sink: 0x0001}
	cfg.Core.Address = 0x0001
	cfg.Core.TxGate = stubGate{}
	if _, err := NewNode(cfg, env); err == nil {
		t.Error("caller-owned TxGate accepted (the wrapper must own the gate)")
	}
}

func TestClearance(t *testing.T) {
	cfg := Config{Sink: 0x0001}
	b := newBus(t, cfg, 0x0001) // the sink itself: depth 0, slot 0
	s := b.envs[0].node
	if got := s.Slot(); got != 0 {
		t.Fatalf("sink slot = %d, want 0", got)
	}
	airtime := 70 * time.Millisecond

	// Control traffic is exempt from the schedule.
	if d := s.Clearance(time.Unix(0, 0), packet.TypeHello, airtime); d != 0 {
		t.Errorf("HELLO deferred %v", d)
	}
	// Inside slot 0's guarded window: clear to transmit.
	if d := s.Clearance(time.Unix(0, int64(slotLen/4)), packet.TypeData, airtime); d != 0 {
		t.Errorf("in-slot DATA deferred %v", d)
	}
	// At the slot boundary, the guard has not opened yet.
	if d := s.Clearance(time.Unix(0, 0), packet.TypeData, airtime); d != guard {
		t.Errorf("boundary DATA deferred %v, want the %v guard", d, guard)
	}
	// In another node's slot: wait for our slot to come around again.
	offSlot := time.Unix(0, int64(slotLen+slotLen/2))
	if d, want := s.Clearance(offSlot, packet.TypeData, airtime), period-(slotLen+slotLen/2)+guard; d != want {
		t.Errorf("off-slot DATA deferred %v, want %v", d, want)
	}
	// A frame that can never fit a guarded slot passes rather than
	// deferring forever.
	if d := s.Clearance(offSlot, packet.TypeData, slotLen-guard); d != 0 {
		t.Errorf("oversized DATA deferred %v", d)
	}
	if got := snapshot(s, "slotted.gate.deferrals"); got != 2 {
		t.Errorf("gate.deferrals = %v, want 2", got)
	}
}

func TestBeaconExchangeAndSlotAssignment(t *testing.T) {
	cfg := Config{Sink: 0x0001}
	b := newBus(t, cfg, 0x0001, 0x0002)
	sink, other := b.envs[0].node, b.envs[1].node

	b.sched.RunFor(6 * time.Minute)

	for _, n := range []*Node{sink, other} {
		if snapshot(n, "slotted.beacon.tx") == 0 {
			t.Errorf("node %v sent no slot beacons", n.Address())
		}
		if snapshot(n, "slotted.beacon.rx") == 0 {
			t.Errorf("node %v heard no slot beacons", n.Address())
		}
	}
	// After HELLO convergence the neighbor sits one hop from the sink.
	if got := other.Slot(); got != 1 {
		t.Errorf("neighbor slot = %d, want 1 (depth 1 mod 3)", got)
	}
	if got := sink.Slot(); got != 0 {
		t.Errorf("sink slot = %d, want 0", got)
	}

	// A malformed beacon payload is ignored, not counted.
	rx := snapshot(sink, "slotted.beacon.rx")
	sink.handleBeacon(&packet.Packet{Src: 0x0005, Payload: []byte{3, 1}}, core.RxInfo{})
	if got := snapshot(sink, "slotted.beacon.rx"); got != rx {
		t.Errorf("malformed beacon counted: %v -> %v", rx, got)
	}

	sink.Stop()
	other.Stop()
}

func TestBeaconsSurface(t *testing.T) {
	cfg := Config{Sink: 0x0001}
	b := newBus(t, cfg, 0x0001)
	// One beacon per beacon period, the first a random fraction of one
	// in — ten in ten beacon periods.
	b.sched.RunFor(10 * beaconPeriod)
	if got := snapshot(b.envs[0].node, "slotted.beacon.tx"); got != 10 {
		t.Errorf("sent %v slot beacons in 10 beacon periods, want 10", got)
	}
}
