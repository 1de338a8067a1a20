package core

// Control-plane command handling (see internal/control): the node-side
// half of the self-healing loop. Commands arrive as ordinary application
// payloads — sealed like any other frame on a secured mesh — and are
// intercepted in deliver, applied here, and answered with a report the
// controller's convergence detection keys on. Everything the engine can
// do to itself (HELLO period, duty class, route purges, key rotation) is
// applied in place; what needs the host (radio reconfiguration, sleep
// scheduling, reboots) goes through Config.OnControl.

import (
	"repro/internal/control"
	"repro/internal/packet"
	"repro/internal/trace"
)

// handleControl applies one command and sends the report back to the
// issuer. Called from deliver, i.e. the node's execution context.
func (n *Node) handleControl(cmd control.Command, from packet.Address) {
	n.reg.Counter("ctl.commands.received").Inc()
	rep := n.ApplyControl(cmd)
	if n.traceOn {
		n.cfg.Tracer.Emit(n.env.Now(), n.addrStr, trace.KindControl,
			"ctl: %s seq=%d from %v -> %s", cmd.Op, cmd.Seq, from, rep.Status)
	}
	if from == n.cfg.Address || from == packet.Broadcast {
		return
	}
	if err := n.Send(from, control.MarshalReport(rep)); err != nil {
		// The controller's retry resends the command; the node will
		// re-ack idempotently.
		n.reg.Counter("ctl.report.senderr").Inc()
		return
	}
	n.reg.Counter("ctl.reports.sent").Inc()
}

// ApplyControl applies one control command to this node and returns the
// report, without sending it (hosts co-located with the controller call
// this directly). Idempotent: re-applying an epoch the node already
// holds just re-acks it.
func (n *Node) ApplyControl(cmd control.Command) control.Report {
	rep := control.Report{Op: cmd.Op, Seq: cmd.Seq, Status: control.StatusOK}
	switch cmd.Op {
	case control.OpSetConfig:
		if cmd.Epoch == 0 || cmd.Epoch > n.ctlEpoch {
			rep.Status = n.applyConfig(cmd)
			if cmd.Epoch > n.ctlEpoch {
				// The epoch advances even on unsupported: the node has
				// converged as far as it ever will on this document, and
				// the report says so honestly.
				n.ctlEpoch = cmd.Epoch
			}
		}
	case control.OpTriggerHello:
		// Purge the faulty path first, then beacon immediately —
		// unthrottled by triggeredHelloGap: the controller already
		// rate-limits the playbook, and a recovery beacon must not be
		// swallowed by a coincidental earlier trigger.
		if cmd.Via != 0 && cmd.Via != packet.Broadcast {
			n.withdrawNeighbor(cmd.Via, "control purge")
		} else if cmd.Dst != 0 && cmd.Dst != packet.Broadcast {
			if e, ok := n.table.Lookup(cmd.Dst); ok && !e.Poisoned() {
				n.withdrawNeighbor(e.Via, "control purge")
			}
		}
		n.reg.Counter("ctl.hello.forced").Inc()
		n.lastTriggered = n.env.Now()
		n.sendHello()
	case control.OpReboot:
		// The engine cannot power-cycle itself; only the host can.
		if n.cfg.OnControl == nil || !n.cfg.OnControl(cmd) {
			rep.Status = control.StatusUnsupported
		}
	case control.OpRekey:
		rep.Status = n.applyRekey(cmd)
	default:
		rep.Status = control.StatusUnsupported
	}
	// Snapshot the node's observed state into every report — this is how
	// node state reaches the controller's diff.
	rep.Epoch = n.ctlEpoch
	rep.KeyEpoch = n.ctlKeyEpoch
	rep.HelloPeriod = n.cfg.HelloPeriod
	rep.DutyCycle = n.cfg.DutyCycleLimit
	rep.SF = int(n.cfg.Phy.SpreadingFactor)
	return rep
}

// applyConfig realizes an OpSetConfig. Zero fields mean "leave alone".
func (n *Node) applyConfig(cmd control.Command) control.Status {
	status := control.StatusOK
	if cmd.HelloPeriod > 0 && cmd.HelloPeriod != n.cfg.HelloPeriod {
		n.cfg.HelloPeriod = cmd.HelloPeriod
		if n.started && !n.stopped {
			// Re-arm the beacon on the new cadence, jittered like any
			// other HELLO so reconfigured fleets do not synchronize.
			n.helloTimer.Reset(n.jitteredHello(cmd.HelloPeriod))
		}
	}
	if cmd.DutyCycle > 0 && cmd.DutyCycle != n.cfg.DutyCycleLimit {
		old := n.duty
		n.cfg.DutyCycleLimit = cmd.DutyCycle
		duty, err := newDuty(n.cfg)
		if err != nil {
			return control.StatusError
		}
		// Swap regulators, carrying the lifetime airtime ledger so
		// AirtimeUsed stays monotonic across the swap.
		n.dutyCarry += old.LifetimeAirtime()
		n.duty = duty
	}
	hostSF := cmd.SF != 0 && cmd.SF != int(n.cfg.Phy.SpreadingFactor)
	hostSleep := cmd.Awake > 0 && cmd.Sleep > 0
	if hostSF || hostSleep {
		// Radio and power scheduling belong to the host.
		if n.cfg.OnControl == nil || !n.cfg.OnControl(cmd) {
			status = control.StatusUnsupported
		}
	}
	return status
}

// applyRekey realizes one OpRekey phase: stage installs the new key for
// acceptance only (this node keeps sealing under the old key, so its
// report — and everything else it transmits — stays readable by peers
// that have not rotated yet), rotate switches the seal key with the old
// kept as grace, and commit retires the old key once the controller has
// seen the whole mesh rotate.
func (n *Node) applyRekey(cmd control.Command) control.Status {
	if n.sec == nil {
		return control.StatusUnsupported
	}
	switch {
	case cmd.Stage:
		n.sec.Stage(cmd.Key)
	case cmd.Commit:
		if n.sec.NetKey() != cmd.Key {
			// Committing a key this node does not hold would strand it.
			return control.StatusError
		}
		n.sec.RetirePrev()
		if cmd.KeyEpoch > n.ctlKeyEpoch {
			n.ctlKeyEpoch = cmd.KeyEpoch
		}
	default:
		if n.sec.NetKey() != cmd.Key {
			n.sec.Rotate(cmd.Key)
			n.ins.secRekeys.Inc()
			if n.traceOn {
				n.cfg.Tracer.Emit(n.env.Now(), n.addrStr, trace.KindApp,
					"sec: network key rotated (epoch %d)", cmd.KeyEpoch)
			}
		}
		if cmd.KeyEpoch > n.ctlKeyEpoch {
			n.ctlKeyEpoch = cmd.KeyEpoch
		}
	}
	return control.StatusOK
}
