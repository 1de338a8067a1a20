package netsim

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/icn"
	"repro/internal/loraphy"
	"repro/internal/packet"
	"repro/internal/reactive"
	"repro/internal/slotted"
	"repro/internal/span"
	"repro/internal/trace"
)

// rebuild boots node h cold: the engine it had (none yet inside New) is
// stopped and its metrics retired, and a fresh one is built and started —
// empty routing table, fresh metrics, zeroed duty accounting, exactly what
// a microcontroller reboot loses. What must outlive a reboot lives on the
// handle and goes into every engine (nodeConfig). A crashed node powers
// back on; a wedged one is wedged no longer.
func (s *Sim) rebuild(h *Handle) error {
	if h.Proto != nil {
		h.retire()
		h.Proto.Stop()
	}
	if err := s.buildEngine(h); err != nil {
		return err
	}
	h.hung = false
	if h.down {
		h.down = false
		_ = s.Medium.SetListening(h.Station, true)
	}
	if err := h.Proto.Start(); err != nil {
		return fmt.Errorf("netsim: start node %d: %w", h.Index, err)
	}
	return nil
}

// nodeConfig prepares node h's core.Config — the proactive engine's, and
// the one the slotted wrapper embeds — from the simulation's template plus
// the state the handle keeps across rebuilds.
func (s *Sim) nodeConfig(h *Handle) core.Config {
	nc := s.Cfg.Node
	nc.Address = h.Addr
	nc.Tracer = s.Tracer
	if s.Cfg.NodeOverride != nil {
		nc = s.Cfg.NodeOverride(h.Index, nc)
		nc.Address = h.Addr // the override must not break addressing
	}
	// The handle's link (not a fresh one) goes into every rebuilt
	// engine: the frame counter must survive restarts.
	nc.Security = h.Sec
	if nc.OnControl == nil {
		// The simulated host side of the control plane (reboots,
		// radio reconfiguration, sleep scheduling) — inert until a
		// controller issues commands, so plain runs are unaffected.
		nc.OnControl = func(cmd control.Command) bool { return s.hostControl(h, cmd) }
	}
	if h.sfOverride != 0 {
		// A control-plane radio reconfiguration outlives rebuilds.
		nc.Phy = nc.EffectivePhy()
		nc.Phy.SpreadingFactor = loraphy.SpreadingFactor(h.sfOverride)
	}
	if h.helloScale > 0 && h.helloScale != 1 {
		// Clock skew: this node's crystal runs fast or slow, so its
		// HELLO cadence drifts from what neighbors expect.
		nc.HelloPeriod = time.Duration(h.helloScale * float64(nc.EffectiveHelloPeriod()))
	}
	return nc
}

// buildEngine constructs node h's protocol engine from the simulation
// config and points the handle at it; rebuild retires and starts around it.
func (s *Sim) buildEngine(h *Handle) error {
	addr := h.Addr
	switch s.Cfg.Protocol {
	case forward.KindProactive:
		n, err := core.NewNode(s.nodeConfig(h), h.env)
		if err != nil {
			return fmt.Errorf("netsim: node %d: %w", h.Index, err)
		}
		h.Proto = n
		h.Mesher = n
		h.env.phy = n.Config().Phy
	case forward.KindFlooding:
		n, err := baseline.NewNode(addr, h.env)
		if err != nil {
			return fmt.Errorf("netsim: node %d: %w", h.Index, err)
		}
		h.Proto = n
		h.Mesher = nil
		h.env.phy = s.Cfg.Node.EffectivePhy()
	case forward.KindReactive:
		n, err := reactive.NewNode(addr, h.env)
		if err != nil {
			return fmt.Errorf("netsim: node %d: %w", h.Index, err)
		}
		h.Proto = n
		h.Mesher = nil
		h.env.phy = s.Cfg.Node.EffectivePhy()
	case forward.KindICN:
		// All strategies share one radio profile: the node template's.
		ic := icn.Config{Address: addr, Tracer: s.Tracer, Phy: s.Cfg.Node.EffectivePhy()}
		if produce := s.Cfg.ICNProduce; produce != nil {
			idx := h.Index
			ic.Produce = func(name string) []byte { return produce(idx, name) }
		}
		n, err := icn.NewNode(ic, h.env)
		if err != nil {
			return fmt.Errorf("netsim: node %d: %w", h.Index, err)
		}
		h.Proto = n
		h.ICN = n
		h.Mesher = nil
		h.env.phy = ic.Phy
	case forward.KindSlotted:
		nc := s.nodeConfig(h)
		// The slotted wrapper owns these hooks.
		nc.TxGate, nc.OnBeacon = nil, nil
		// Slots follow route depth to node 0, the sink of every workload.
		n, err := slotted.NewNode(slotted.Config{Core: nc, Sink: baseAddress}, h.env)
		if err != nil {
			return fmt.Errorf("netsim: node %d: %w", h.Index, err)
		}
		h.Proto = n
		h.Mesher = n.Node
		h.env.phy = n.Config().Phy
	default:
		return fmt.Errorf("netsim: unknown protocol %q", s.Cfg.Protocol)
	}
	return nil
}

// ApplyFaultPlan validates plan and arms it against this simulation:
// link loss models and corruption interpose on every subsequent medium
// delivery, flap and crash events are scheduled on the virtual clock
// (times relative to now), and clock skews rebuild the affected engines
// with scaled HELLO timers. Every injected event is virtual-time stamped
// and derived deterministically from (plan, Cfg.Seed), so a run is
// byte-for-byte replayable. One plan per simulation.
func (s *Sim) ApplyFaultPlan(plan *faults.Plan) error {
	if plan == nil {
		return fmt.Errorf("netsim: nil fault plan")
	}
	if s.injector != nil {
		return fmt.Errorf("netsim: a fault plan is already applied")
	}
	if err := plan.Validate(s.N()); err != nil {
		return err
	}
	if len(plan.ClockSkews) > 0 && s.handles[0].Mesher == nil {
		return fmt.Errorf("netsim: clock_skews scale the HELLO timer, and the %s strategy has none", s.Cfg.Protocol)
	}
	now := s.Sched.Now()

	// Clock skews: rebuild the affected engines with the scaled HELLO
	// period. Applied at plan time, the rebuild also costs the node its
	// routing table — apply plans before meaningful state accrues, or
	// treat the loss as part of the scenario.
	for _, sk := range plan.ClockSkews {
		h := s.handles[sk.Node]
		h.helloScale = sk.Factor
		if h.killed || h.down {
			continue // the restart path rebuilds with the skew
		}
		if err := s.rebuild(h); err != nil {
			return err
		}
		s.Tracer.Emit(now, h.addrStr, trace.KindFailure,
			"clock skew %.2fx applied to HELLO timer", sk.Factor)
	}

	// Crashes: scheduled relative to now (the injector epoch).
	for _, c := range plan.Crashes {
		c := c
		s.Sched.MustAfter(c.At.D(), func() { s.crashNode(c.Node, c.Downtime.D()) })
	}

	// Flap boundaries: emit trace events at every down/up edge so the
	// JSONL record shows the topology timeline. The windows themselves
	// are evaluated functionally by the injector; these events are
	// observational only.
	for _, f := range plan.Flaps {
		f := f
		downAt := func(i int) time.Duration { return f.Start.D() + time.Duration(i)*f.Period.D() }
		var arm func(i int)
		arm = func(i int) {
			if f.Count > 0 && i >= f.Count {
				return
			}
			s.Sched.MustAfter(now.Add(downAt(i)).Sub(s.Sched.Now()), func() {
				s.Tracer.Emit(s.Sched.Now(), "sim", trace.KindFailure,
					"link %d-%d down (flap %d)", f.A, f.B, i)
				s.Sched.MustAfter(f.Down.D(), func() {
					s.Tracer.Emit(s.Sched.Now(), "sim", trace.KindFailure,
						"link %d-%d up (flap %d)", f.A, f.B, i)
					if f.Period.D() > 0 {
						arm(i + 1)
					}
				})
			})
		}
		arm(0)
	}

	// Attackers: hostile stations camped next to their victims.
	if err := s.applyAttackers(plan.Attackers); err != nil {
		return err
	}

	s.injector = faults.NewInjector(plan, s.Cfg.Seed, now)
	s.Tracer.Emit(now, "sim", trace.KindFailure,
		"fault plan %q applied (seed %d)", plan.Name, s.Cfg.Seed)
	return nil
}

// FaultStats returns the injector's per-reason counts (empty without a
// plan).
func (s *Sim) FaultStats() map[string]uint64 {
	if s.injector == nil {
		return map[string]uint64{}
	}
	return s.injector.Stats()
}

// crashNode takes node i down per the fault plan: the engine stops (all
// state, including the routing table, is lost) and the radio goes deaf.
// With downtime > 0 the node restarts cold after that long.
func (s *Sim) crashNode(i int, downtime time.Duration) {
	h := s.handles[i]
	if h.killed || h.down {
		return
	}
	h.down = true
	h.Proto.Stop()
	_ = s.Medium.SetListening(h.Station, false)
	s.reg.Counter("fault.crash").Inc()
	s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
		"node crashed (fault plan); routing table lost")
	if downtime > 0 {
		s.Sched.MustAfter(downtime, func() { s.restartNode(i) })
	}
}

// restartNode boots a crashed node cold: fresh engine, empty routing
// table, zeroed duty accounting — the prior engine's metrics live on in
// Handle.retired.
func (s *Sim) restartNode(i int) {
	h := s.handles[i]
	if h.killed || !h.down {
		return
	}
	if err := s.rebuild(h); err != nil {
		s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
			"restart failed: %v", err)
		return
	}
	s.reg.Counter("fault.restart").Inc()
	s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
		"node restarted cold (empty routing table)")
}

// faultDrop accounts one injector-dropped delivery: a sim-level
// drop.fault.<reason> counter, plus the segment that terminates the
// frame's span at this node and the narrative event it pairs with 1:1,
// both carrying the packet's trace ID when the frame still parses.
func (s *Sim) faultDrop(at time.Time, h *Handle, reason string, frame []byte) {
	s.reg.Counter("drop.fault." + reason).Inc()
	if s.Tracer == nil {
		return
	}
	var id trace.TraceID
	if p, err := packet.Unmarshal(frame); err == nil {
		id = trace.TraceID(p.TraceID())
	}
	s.Tracer.EmitSeg(at, h.addrStr, trace.KindSpan, id, span.SegDrop.String(), 0, reason)
	if s.Tracer.Enabled() {
		s.Tracer.EmitPacket(at, h.addrStr, trace.KindDrop, id,
			"drop.fault.%s %d bytes", reason, len(frame))
	}
}
