package netsim

// Controller attachment: runs the internal/control reconciler inside a
// simulation on the virtual clock. The controller lives at one host node
// (the gateway in the experiments), sends commands through that node's
// own engine, observes reports off its delivery hook, consumes the
// health monitor's violation feed, and — as the out-of-band escalation
// path — power-cycles nodes an in-band command cannot reach. Everything
// is scheduled on the simulation clock, so a controller-driven run stays
// a pure function of (plan, seed, state document).

import (
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/packet"
	"repro/internal/trace"
)

// controllerHost is the topology index of the node the controller is
// co-located with (commands for it apply locally; rollout distance is
// measured from it): node 0, the experiments' gateway position.
const controllerHost = 0

// AttachController builds the self-healing control plane over this
// simulation and arms its reconcile loop on the virtual clock. The
// caller sets cfg.State and whatever timing it wants off the defaults;
// the wiring fields (Nodes, Send, Self, Local, Distance, Escalate,
// Tracer) are the simulation's to fill. Requires the proactive strategy
// and an armed health monitor (Config.HealthInterval), since the
// recovery playbooks are driven by its violation feed. One controller
// per simulation.
func (s *Sim) AttachController(cfg control.Config) (*control.Controller, error) {
	if s.Cfg.Protocol != forward.KindProactive {
		return nil, fmt.Errorf("netsim: the controller requires the %s strategy", forward.KindProactive)
	}
	if s.Health == nil {
		return nil, fmt.Errorf("netsim: the controller needs the health monitor (set Config.HealthInterval)")
	}
	if s.control != nil {
		return nil, fmt.Errorf("netsim: a controller is already attached")
	}
	host := s.handles[controllerHost]
	hostPos := s.Cfg.Topology.Positions[controllerHost]
	cfg.Nodes = make([]packet.Address, 0, len(s.handles))
	for _, h := range s.handles {
		cfg.Nodes = append(cfg.Nodes, h.Addr)
	}
	// Resolve the host engine per call: reboots replace it, and a
	// command sent through a stale engine would vanish.
	cfg.Send = func(to packet.Address, payload []byte, reliable bool) error {
		if host.killed || host.down {
			return fmt.Errorf("netsim: controller host %v is down", host.Addr)
		}
		if reliable {
			_, err := host.Mesher.SendReliable(to, payload)
			return err
		}
		return host.Mesher.Send(to, payload)
	}
	cfg.Self = host.Addr
	cfg.Local = func(cmd control.Command) control.Report { return host.Mesher.ApplyControl(cmd) }
	cfg.Distance = func(a packet.Address) float64 { return s.distanceFrom(hostPos, a) }
	cfg.Tracer = s.Tracer
	// The out-of-band recovery an in-band command cannot deliver: a
	// node whose engine is wedged never acks its reboot command, so
	// after retry exhaustion the "infrastructure" power-cycles it.
	// Only the reboot playbook escalates — an unacked route purge or
	// config push does not justify cycling a node's power.
	cfg.Escalate = func(a packet.Address, cmd control.Command) bool {
		if cmd.Op != control.OpReboot {
			return false
		}
		h := s.ByAddr(a)
		if h == nil {
			return false
		}
		// The escalation satisfies the command: stale in-band copies
		// of it (stream retries queued while the node was deaf) must
		// not power-cycle the node again when they finally deliver.
		if cmd.Seq > h.lastRebootSeq {
			h.lastRebootSeq = cmd.Seq
		}
		return s.rebootNode(h.Index, "controller escalation")
	}
	ctl, err := control.New(cfg)
	if err != nil {
		return nil, err
	}
	// Reports arrive as ordinary deliveries at the host; intercept them
	// in front of whatever observer is already installed.
	prev := host.OnMessage
	host.OnMessage = func(msg core.AppMessage) {
		if ctl.ObserveReport(s.Sched.Now(), msg.From, msg.Payload) {
			return
		}
		if prev != nil {
			prev(msg)
		}
	}
	s.Health.Subscribe(func(v health.Violation) { ctl.OnViolation(s.Sched.Now(), v) })
	interval := ctl.PollInterval()
	var tick func()
	tick = func() {
		ctl.Poll(s.Sched.Now())
		s.Sched.MustAfter(interval, tick)
	}
	s.Sched.MustAfter(interval, tick)
	s.control = ctl
	return ctl, nil
}

// distanceFrom measures a node's distance from the controller host for
// farthest-first rollout ordering.
func (s *Sim) distanceFrom(from geo.Point, a packet.Address) float64 {
	h := s.ByAddr(a)
	if h == nil {
		return 0
	}
	return s.Cfg.Topology.Positions[h.Index].Distance(from)
}

// Hang wedges node i: the engine stops making progress (no beacons, no
// forwarding, frames fall on deaf ears) but the node is NOT powered
// off — the failure mode of a firmware deadlock or a crashed task on a
// still-energized board. The health monitor's silent detector is what
// notices: liveness telemetry still says "up" while the tx/rx counters
// freeze.
func (s *Sim) Hang(i int) error {
	if i < 0 || i >= len(s.handles) {
		return fmt.Errorf("netsim: hang: node %d out of range", i)
	}
	h := s.handles[i]
	if h.killed || h.down || h.hung {
		return fmt.Errorf("netsim: hang: node %d is not running", i)
	}
	h.hung = true
	h.Proto.Stop()
	s.reg.Counter("fault.hang").Inc()
	s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
		"node hung (engine wedged, still powered)")
	return nil
}

// rebootNode power-cycles node i out of band (the controller's
// escalation path, or an OpReboot the node's host accepted): the engine
// is rebuilt cold — routing table, queue, and duty accounting gone, the
// security link preserved — and restarted immediately. Reports whether
// the node came back.
func (s *Sim) rebootNode(i int, why string) bool {
	h := s.handles[i]
	if h.killed {
		return false
	}
	if h.down {
		// Already powered off (fault-plan crash): a power-cycle just
		// turns it back on.
		s.restartNode(i)
		return !h.down
	}
	if err := s.rebuild(h); err != nil {
		s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
			"reboot failed: %v", err)
		return false
	}
	s.reg.Counter("fault.reboot").Inc()
	s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure,
		"node power-cycled (%s); routing table lost", why)
	return true
}

// hostControl is the simulated host side of the node control hook: the
// operations an engine cannot perform on itself. It is wired as
// core.Config.OnControl on every simulated mesher node (nodeConfig),
// and is inert until a controller actually issues commands.
func (s *Sim) hostControl(h *Handle, cmd control.Command) bool {
	switch cmd.Op {
	case control.OpReboot:
		// Reboots are once per command seq: controller retries reuse the
		// seq, and every stream copy queued while the node was deaf
		// eventually delivers. The host (which survives the power-cycle,
		// unlike the engine) remembers the highest seq it honored and
		// re-acks stale copies without pulling power again.
		if cmd.Seq != 0 && cmd.Seq <= h.lastRebootSeq {
			return true
		}
		h.lastRebootSeq = cmd.Seq
		// Power-cycle after a grace delay so the in-band report clears
		// the transmit queue before the engine (and the queued report)
		// is destroyed.
		delay := cmd.Delay
		if delay <= 0 {
			delay = defaultRebootDelay
		}
		i := h.Index
		s.Sched.MustAfter(delay, func() { s.rebootNode(i, "host reboot command") })
		return true
	case control.OpSetConfig:
		ok := true
		if cmd.SF != 0 {
			// A spreading-factor change reconfigures the radio; the
			// simulated host applies it the way real firmware does — by
			// rebooting into the new profile. The override persists on
			// the handle so every future rebuild keeps it.
			if cmd.SF < 7 || cmd.SF > 12 {
				ok = false
			} else if cmd.SF != h.sfOverride {
				h.sfOverride = cmd.SF
				i := h.Index
				s.Sched.MustAfter(defaultRebootDelay, func() { s.rebootNode(i, "radio reconfiguration") })
			}
		}
		if cmd.Awake > 0 && cmd.Sleep > 0 {
			if h.sleepArmed {
				// The schedule is already running; the sim's sleep cycle
				// cannot be re-phased once armed.
				return ok
			}
			if err := s.StartSleepCycle(h.Index, cmd.Awake, cmd.Sleep); err != nil {
				return false
			}
			h.sleepArmed = true
		}
		return ok
	}
	return false
}

// defaultRebootDelay is the grace between accepting a reboot-class
// command and pulling power, long enough for the acknowledging report
// to leave the transmit queue.
const defaultRebootDelay = 3 * time.Second
