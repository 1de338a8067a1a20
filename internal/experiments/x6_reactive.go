package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// X6Reactive is an extension experiment: the canonical proactive-versus-
// reactive-versus-flooding comparison. The proactive protocol (LoRaMesher)
// pays a constant beacon tax to answer every route instantly; the reactive
// baseline (AODV-lite) is silent until traffic appears and pays a
// discovery flood plus first-packet latency per route; flooding pays per
// packet forever. Idle overhead, first-packet latency, and steady-state
// cost separate the three.
func X6Reactive(opt Options) (*Result, error) {
	n := 10
	idle := time.Hour
	active := 2 * time.Hour
	res := &Result{
		Title: fmt.Sprintf("extension: proactive vs reactive vs flooding, %d nodes", n),
		Header: []string{"protocol", "idle airtime/h", "first-packet latency",
			"steady PDR", "steady latency", "tx frames"},
	}
	side := 12000.0 * math.Sqrt(float64(n)/4)
	topo, err := geo.ConnectedRandomGeometric(n, side, side, 12000, opt.Seed, 1000)
	if err != nil {
		return nil, err
	}
	// The comparison set is expressed in strategy-API terms: each row is
	// a forward.Kind plus its display name.
	protos := []struct {
		kind forward.Kind
		name string
	}{
		{forward.KindProactive, "LoRaMesher (proactive)"},
		{forward.KindReactive, "AODV-lite (reactive)"},
		{forward.KindFlooding, "flooding"},
	}
	if err := res.sweep(len(protos), func(p int) ([]string, error) {
		pr := protos[p]
		sim, err := converged(netsim.Config{Topology: topo, Protocol: pr.kind, Node: expNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		// Phase 1: a silent network — what does just existing cost?
		airBefore := sim.TotalAirtime()
		sim.Run(idle)
		idleAir := time.Duration(float64(sim.TotalAirtime()-airBefore) / float64(n) / idle.Hours())

		// Phase 2: traffic appears. The first packet of each flow
		// measures cold-route latency; the rest measure steady state.
		all, err := sim.StartPairs(3 * time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(active)
		total := netsim.MergeStats(all)
		var firsts []time.Duration
		for _, st := range all {
			if lats := netsim.MergeStats([]*netsim.TrafficStats{st}).Latencies; len(lats) > 0 {
				firsts = append(firsts, lats[0])
			}
		}
		snap := sim.AggregateMetrics().Snapshot()
		first := "-"
		if len(firsts) > 0 {
			first = fmtDur(median(firsts))
		}
		return []string{pr.name, fmtDur(idleAir), first,
			fmtPct(total.DeliveryRatio()), fmtDur(total.MeanLatency()),
			fmtF(snap["total.tx.frames"], 0)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"the trade: proactive pays idle beacons and answers instantly; reactive is silent when idle but the first packet of every flow waits out a discovery round trip; flooding pays the most airtime forever. For always-on telemetry (this paper's workload) proactive wins; for rare event traffic reactive's silence is worth the latency")
	return res, nil
}
