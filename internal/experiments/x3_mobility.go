package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
)

// X3Mobility is an extension experiment: the protocol under node movement.
// Distance-vector tables chase a moving topology at HELLO-period speed, so
// delivery degrades as node velocity grows relative to (radio range /
// hello period) — the classic mobility wall for proactive protocols.
func X3Mobility(opt Options) (*Result, error) {
	speeds := []float64{0, 1, 5, 15, 30} // m/s: static, walking, cycling, driving
	dur := 2 * time.Hour
	n := 10
	res := &Result{
		Title:  fmt.Sprintf("extension: random-waypoint mobility, %d nodes, Poisson unicast", n),
		Header: []string{"speed m/s", "PDR", "mean latency", "no-route drops", "routes expired"},
	}
	if err := res.sweep(len(speeds), func(p int) ([]string, error) {
		speed := speeds[p]
		side := 12000.0 * 1.6 // keep the roaming field comfortably connected
		topo, err := geo.ConnectedRandomGeometric(n, side, side, 12000, opt.Seed, 2000)
		if err != nil {
			return nil, err
		}
		cfg := expNode()
		// Mobile meshes need faster failure detection than the static
		// default: TTL of a few HELLO periods.
		cfg.Routing.EntryTTL = 6 * time.Minute
		sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		if speed > 0 {
			model, err := geo.NewRandomWaypoint(n, side, side, speed, speed, 30*time.Second, opt.Seed)
			if err != nil {
				return nil, err
			}
			if err := sim.StartMobility(model, 10*time.Second); err != nil {
				return nil, err
			}
		}
		all, err := sim.StartPairs(3 * time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		total := netsim.MergeStats(all)
		snap := sim.AggregateMetrics().Snapshot()
		return []string{fmtF(speed, 0), fmtPct(total.DeliveryRatio()),
			fmtDur(total.MeanLatency()),
			fmtF(snap["total.drop.noroute"], 0),
			fmtF(snap["total.routes.expired"], 0)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"pedestrian speeds are nearly free (links outlive the hello period); vehicular speeds outrun the 2-min beacons — stale next hops and no-route drops climb, the proactive protocol's known mobility wall")
	return res, nil
}
