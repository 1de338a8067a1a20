// Package slotted implements the real-time forwarding strategy: a full
// LoRaMesher distance-vector engine whose DATA transmissions are gated
// into a TDMA-like slotted schedule, trading idle airtime for a bounded,
// predictable per-flow latency.
//
// The schedule is a superframe of N slots of fixed length, compiled in
// (the constants below) so the whole mesh shares one schedule without
// any distribution protocol. A node's slot is its route depth to the
// sink modulo the slot count — nodes at the same depth share a slot, and
// a packet relayed hop by hop toward the sink ratchets through
// consecutive slots, which is what yields the per-flow latency bound the
// health monitor enforces (see internal/health's latency-bound
// invariant). Slot phase is anchored to absolute time (virtual under
// simulation), so nodes agree on slot boundaries without beacon-based
// synchronization; the periodic slot beacon (packet.TypeSlotBeacon)
// advertises the node's current assignment for observability and for
// neighbors to sanity-check depth.
//
// Control traffic — HELLOs, ACKs, route maintenance — is exempt from
// the gate: the routing plane must converge for slot assignments to make
// sense, and control frames are small. Only application data
// (TypeData, TypeDataAck, TypeXLData) waits for its slot.
package slotted

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The superframe: the one real-time schedule every program runs
// (DESIGN.md's options policy). It repeats every slots×slotLen, and a node
// transmits data only inside its own slot.
const (
	slots   = 3
	slotLen = 2 * time.Second
	// guard is trimmed from both ends of a slot: a transmission must
	// finish guard before the slot closes.
	guard  = 100 * time.Millisecond
	period = slots * slotLen
	// beaconPeriod is the slot-beacon interval: every tenth superframe.
	beaconPeriod = 10 * period
	// LatencyBound is the per-flow delivery deadline the schedule
	// promises; netsim hands it to the health monitor as an invariant.
	LatencyBound = 90 * time.Second
)

// Config parameterizes a slotted node.
type Config struct {
	// Core is the underlying distance-vector engine's configuration.
	// TxGate and OnBeacon must be unset — the slotted wrapper owns them.
	Core core.Config
	// Sink is the node whose route depth assigns slots (depth 0 — the
	// sink itself and nodes with no route yet — gets slot 0).
	Sink packet.Address
}

// Node is one slotted protocol engine: the full proactive engine with a
// TDMA transmit gate layered on top. It embeds *core.Node, so the whole
// application surface (Send, SendReliable, Table, Metrics, HandleFrame)
// is the core engine's.
type Node struct {
	*core.Node
	cfg Config
	env core.Env

	beaconTimer core.Timer
	stopped     bool
}

// Compile-time checks: the node is its own transmit gate, and the
// wrapper still satisfies the strategy surface.
var _ forward.TxGate = (*Node)(nil)

// NewNode creates a slotted node on the given env.
func NewNode(cfg Config, env core.Env) (*Node, error) {
	if cfg.Core.TxGate != nil || cfg.Core.OnBeacon != nil {
		return nil, fmt.Errorf("slotted: Core.TxGate/OnBeacon are owned by the slotted wrapper")
	}
	s := &Node{cfg: cfg, env: env}
	coreCfg := cfg.Core
	coreCfg.TxGate = s
	coreCfg.OnBeacon = s.handleBeacon
	inner, err := core.NewNode(coreCfg, env)
	if err != nil {
		return nil, err
	}
	s.Node = inner
	for _, c := range []string{"slotted.beacon.tx", "slotted.beacon.rx", "slotted.gate.deferrals"} {
		inner.Metrics().Counter(c)
	}
	inner.Metrics().Gauge("slotted.slot")
	return s, nil
}

// Slot returns the node's current slot assignment: route depth to the
// sink modulo the slot count. The sink itself — and any node that has
// not yet learned a route — transmits in slot 0.
func (s *Node) Slot() int {
	return s.depth() % slots
}

func (s *Node) depth() int {
	if s.Address() == s.cfg.Sink {
		return 0
	}
	if h, ok := s.Table().HopsTo(s.cfg.Sink); ok {
		return int(h)
	}
	return 0
}

// Clearance implements the TDMA gate (forward.TxGate): control frames
// pass immediately; data frames wait for the node's slot. A frame whose
// airtime can never fit inside a guarded slot passes through rather than
// deferring forever.
func (s *Node) Clearance(now time.Time, t packet.Type, airtime time.Duration) time.Duration {
	switch t {
	case packet.TypeData, packet.TypeDataAck, packet.TypeXLData:
	default:
		return 0
	}
	if airtime >= slotLen-2*guard {
		return 0
	}
	phase := time.Duration(now.UnixNano() % int64(period))
	slotStart := time.Duration(s.Slot()) * slotLen
	open := slotStart + guard
	// The transmission must finish before the guarded slot close.
	close := slotStart + slotLen - guard - airtime
	if phase >= open && phase <= close {
		return 0
	}
	wait := open - phase
	if wait <= 0 {
		wait += period
	}
	s.Metrics().Counter("slotted.gate.deferrals").Inc()
	return wait
}

// Start starts the underlying engine and arms the slot beacon.
func (s *Node) Start() error {
	if err := s.Node.Start(); err != nil {
		return err
	}
	s.beaconTimer = core.NewEnvTimer(s.env, s.beaconTick)
	// First beacon after a random fraction of the period, like HELLOs.
	s.beaconTimer.Reset(time.Duration(s.env.Rand() * float64(beaconPeriod)))
	return nil
}

// Stop stops the beacon and the underlying engine.
func (s *Node) Stop() {
	s.stopped = true
	if s.beaconTimer != nil {
		s.beaconTimer.Stop()
	}
	s.Node.Stop()
}

func (s *Node) beaconTick() {
	if s.stopped {
		return
	}
	slot := s.Slot()
	s.Metrics().Gauge("slotted.slot").Set(float64(slot))
	payload := packet.SlotBeacon{Slots: slots, Slot: uint8(slot), Depth: uint8(s.depth())}.Append(nil)
	if err := s.SendBeacon(packet.TypeSlotBeacon, payload); err == nil {
		s.Metrics().Counter("slotted.beacon.tx").Inc()
		if tr := s.Config().Tracer; tr.Enabled() {
			tr.Emit(s.env.Now(), s.Address().String(), trace.KindSlotBeacon,
				"slot beacon: slot %d/%d depth %d", slot, slots, s.depth())
		}
	}
	s.beaconTimer.Reset(beaconPeriod)
}

// handleBeacon counts neighbor slot beacons (observability only: slot
// assignment is derived from the routing table, not from beacons).
func (s *Node) handleBeacon(p *packet.Packet, _ core.RxInfo) {
	b, err := packet.UnmarshalSlotBeacon(p.Payload)
	if err != nil {
		return
	}
	s.Metrics().Counter("slotted.beacon.rx").Inc()
	if tr := s.Config().Tracer; tr.Enabled() {
		tr.Emit(s.env.Now(), s.Address().String(), trace.KindSlotBeacon,
			"heard slot beacon from %v: slot %d/%d depth %d", p.Src, b.Slot, b.Slots, b.Depth)
	}
}
