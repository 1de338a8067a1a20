package experiments

import (
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/meshsec"
	"repro/internal/netsim"
)

// E16SelfHealing measures mean-time-to-repair for the self-healing
// control plane: three fault scenarios, each run with the controller off
// and on, with MTTR measured from fault injection to the recovery
// signal.
//
//   - blackhole: a relay on the active path dies while an equal-metric
//     alternate exists. Distance-vector tables do not switch on equal
//     metric, so without a controller the stale route persists until
//     EntryTTL; the blackhole playbook purges it and re-routes within a
//     HELLO period. Recovery = first probe delivered after the kill.
//   - silent: a relay wedges (powered, radio deaf, counters frozen).
//     Nothing in the data plane can fix a hung engine; the silent
//     playbook's in-band reboot exhausts its retries and escalates to a
//     host power-cycle. Recovery = first probe delivered after the hang.
//   - replay: an attacker camps next to a relay replaying a sniffed
//     corpus (capture frozen after 60 s). Replays of old frames are
//     rejected forever but keep authenticating, so the anomaly never
//     ends on its own; the replay playbook rotates the network key and
//     the commit wave makes the corpus die at the MIC. Recovery = the
//     replay-drop counter going quiet while the attacker keeps
//     transmitting.
//
// The table's shape is the point: every controller-on cell recovers
// inside the horizon and no controller-off cell does, with detection
// latency (the health monitor runs in both columns) separated from
// repair latency (controller-only).
func E16SelfHealing(opt Options) (*Result, error) {
	const probeEvery = 15 * time.Second
	horizon := 8 * time.Minute
	key := opt.SecKey
	if key == nil {
		k := e13Key
		key = &k
	}

	res := &Result{
		Title: fmt.Sprintf("self-healing MTTR: controller off vs on (%v horizon, probes every %v)",
			horizon, probeEvery),
		Header: []string{"fault", "controller", "detected", "recovered", "MTTR", "mechanism"},
	}

	type cell struct {
		fault string
		ctl   bool
	}
	var cells []cell
	for _, f := range []string{"blackhole", "silent", "replay"} {
		cells = append(cells, cell{f, false}, cell{f, true})
	}

	if err := res.sweep(len(cells), func(i int) ([]string, error) {
		return e16Cell(opt, cells[i].fault, cells[i].ctl, *key, horizon, probeEvery)
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		"MTTR runs from fault injection to the recovery signal: a delivered probe (blackhole, silent) or the replay-drop counter going quiet for 2min while the attacker keeps injecting (replay).",
		"Detection is the health monitor's first matching violation and is controller-independent; repair is what the controller adds.",
		"Every controller-off cell holds its fault to the horizon: the stale route outlives it (EntryTTL 10m), the wedged node has no external actor, and the frozen corpus keeps authenticating under the never-rotated key.")
	return res, nil
}

// e16Cell runs one (fault, controller) cell and returns its table row.
func e16Cell(opt Options, fault string, withCtl bool, key meshsec.Key,
	horizon, probeEvery time.Duration) ([]string, error) {

	const settle = time.Minute
	// The replay cell judges recovery by quiescence: no replay-drop
	// growth for this long (8 attacker periods) while injections go on.
	const quiet = 2 * time.Minute

	nodeCfg := expNode()
	nodeCfg.HelloPeriod = time.Minute // repair latency is bounded by the beacon period

	var topo *geo.Topology
	var err error
	probeTo := 0
	switch fault {
	case "blackhole":
		// A diamond: 0-1, 0-2, 1-3, 2-3 in range, diagonals out of
		// range. Killing the relay 0 routes through leaves the other as
		// an equal-metric alternate.
		topo, err = geo.Grid(2, 2, 10000)
		probeTo = 3
	case "silent":
		topo, err = geo.Line(4, chainSpacing)
		probeTo = 3
	case "replay":
		topo, err = geo.Line(3, chainSpacing)
		probeTo = 2
	default:
		return nil, fmt.Errorf("experiments: e16: unknown fault %q", fault)
	}
	if err != nil {
		return nil, err
	}

	k := key
	// Health polls at 30 s: the silent detector's window (3 polls) must
	// exceed the 1 min HELLO period, or a merely-quiet leaf node looks
	// dead every time a beacon misses the window.
	sim, err := netsim.New(netsim.Config{
		Topology:       topo,
		Node:           nodeCfg,
		Seed:           opt.Seed,
		SecKey:         &k,
		HealthInterval: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if _, ok := sim.TimeToConvergence(time.Second, 30*time.Minute); !ok {
		return nil, fmt.Errorf("experiments: e16 %s: mesh never converged", fault)
	}

	// Probe deliveries timestamped at the sink: the recovery signal for
	// the path faults, and capture material for the attacker in all
	// three scenarios.
	var delivered []time.Time
	sim.Handle(probeTo).OnMessage = func(core.AppMessage) {
		delivered = append(delivered, sim.Now())
	}

	if withCtl {
		if _, err := sim.AttachController(control.Config{
			// Version 0 + KeyEpoch 0: no configuration churn — the
			// controller is idle until the playbooks have a violation
			// to act on, so pre-fault behavior matches the off column.
			State: &control.State{
				Version: 0,
				NetKey:  hex.EncodeToString(k[:]),
			},
			PollInterval:  10 * time.Second,
			RetryInterval: 45 * time.Second,
			MaxRetries:    2,
			Cooldown:      5 * time.Minute,
			StallDecay:    90 * time.Second,
		}); err != nil {
			return nil, err
		}
	}

	probe := func() {
		// Unreliable datagrams: a probe must not outlive the fault via
		// transport retries, or MTTR would measure the stream layer.
		_ = sim.Handle(0).Mesher.Send(sim.Handle(probeTo).Addr, []byte("e16 probe"))
	}

	// Settle with live probes so the attacker (armed at fault time)
	// has traffic to capture and the pre-fault path demonstrably works.
	for t := time.Duration(0); t < settle; t += probeEvery {
		probe()
		sim.Run(probeEvery)
	}
	if len(delivered) == 0 {
		return nil, fmt.Errorf("experiments: e16 %s: no probe delivered before the fault", fault)
	}

	// Inject the fault.
	faultAt := sim.Now()
	switch fault {
	case "blackhole":
		via, ok := sim.Handle(0).Mesher.Table().NextHop(sim.Handle(probeTo).Addr)
		if !ok {
			return nil, fmt.Errorf("experiments: e16: no route to the probe sink")
		}
		relay := sim.ByAddr(via)
		if relay == nil {
			return nil, fmt.Errorf("experiments: e16: next hop %v is not a node", via)
		}
		if err := sim.Kill(relay.Index); err != nil {
			return nil, err
		}
	case "silent":
		if err := sim.Hang(2); err != nil {
			return nil, err
		}
	case "replay":
		// The attacker camps at the far edge node: its corpus reaches
		// only nodes that already hear the replayed origins live, so
		// every injection is detectably stale (meshsec drops it) rather
		// than a wormhole teleporting beacons past their one-hop reach.
		if err := sim.ApplyFaultPlan(&faults.Plan{
			Name: "e16-replay",
			Attackers: []faults.Attacker{{
				Node:         2,
				Start:        0,
				Period:       faults.Duration(4 * time.Second),
				Replay:       true,
				CaptureUntil: faults.Duration(time.Minute),
			}},
		}); err != nil {
			return nil, err
		}
	}

	// Measure: step to the horizon, recording first detection and the
	// recovery signal.
	var detectedAt, recoveredAt time.Time
	kind := fault // violation kinds share the scenario names
	lastReplayDrops := sim.AggregateMetrics().Snapshot()["total.sec.drop.replay"]
	lastGrowth := faultAt
	for sim.Now().Sub(faultAt) < horizon {
		probe()
		sim.Run(probeEvery)
		snap := sim.AggregateMetrics().Snapshot()
		if detectedAt.IsZero() && snap["health.violation."+kind] > 0 {
			detectedAt = sim.Now()
		}
		switch fault {
		case "blackhole", "silent":
			if recoveredAt.IsZero() {
				for _, at := range delivered {
					if at.After(faultAt) {
						recoveredAt = at
						break
					}
				}
			}
		case "replay":
			if d := snap["total.sec.drop.replay"]; d > lastReplayDrops {
				lastReplayDrops = d
				lastGrowth = sim.Now()
			}
		}
	}
	if fault == "replay" && sim.Now().Sub(lastGrowth) >= quiet && lastGrowth.After(faultAt) {
		recoveredAt = lastGrowth
	}

	// Render the row.
	ctlCol := "off"
	if withCtl {
		ctlCol = "on"
	}
	detCol, recCol, mttrCol := "never", "no", ">"+fmtDur(horizon)
	if !detectedAt.IsZero() {
		detCol = fmtDur(detectedAt.Sub(faultAt))
	}
	if !recoveredAt.IsZero() {
		recCol = "yes"
		mttrCol = fmtDur(recoveredAt.Sub(faultAt))
	}
	snap := sim.AggregateMetrics().Snapshot()
	var mech string
	switch {
	case fault == "blackhole" && withCtl:
		mech = "route purged, re-routed via alternate relay"
	case fault == "blackhole":
		mech = "stale route held (EntryTTL 10m > horizon)"
	case fault == "silent" && withCtl:
		mech = fmt.Sprintf("in-band reboot exhausted; %d power-cycle escalation(s)",
			int(snap["sim.fault.reboot"]))
	case fault == "silent":
		mech = "node stays wedged (no external actor)"
	case fault == "replay" && withCtl:
		mech = fmt.Sprintf("rekeyed to epoch %d; corpus now dies at auth",
			int(snap["ctl.key.epoch"]))
	case fault == "replay":
		mech = "frozen corpus keeps authenticating under old key"
	}
	return []string{fault, ctlCol, detCol, recCol, mttrCol, mech}, nil
}
