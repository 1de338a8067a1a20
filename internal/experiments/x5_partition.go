package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// X5Partition is an extension experiment: the mesh through a network
// partition and merge — the failure mode a standalone infrastructure-less
// mesh exists to survive. Two clusters joined by one inter-cluster radio
// path get severed; intra-cluster traffic must keep flowing while
// cross-cluster traffic black-holes, and after the heal the mesh must
// re-merge on its own.
func X5Partition(opt Options) (*Result, error) {
	phase := 45 * time.Minute
	// Two 4-node square clusters, 8 km apart: only the facing corners
	// bridge the gap.
	cluster := func(ox, oy float64) []geo.Point {
		return []geo.Point{
			{X: ox, Y: oy}, {X: ox + 6000, Y: oy},
			{X: ox, Y: oy + 6000}, {X: ox + 6000, Y: oy + 6000},
		}
	}
	topo := &geo.Topology{
		Name:      "two-cluster bridge",
		Positions: append(cluster(0, 0), cluster(14000, 0)...),
	}
	groupA := []int{0, 1, 2, 3}
	groupB := []int{4, 5, 6, 7}

	cfg := expNode()
	cfg.Routing = routing.Config{EntryTTL: 6 * time.Minute, Poisoning: true}
	sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}

	// One intra-cluster flow per side plus two cross-cluster flows.
	// Poisson gaps desynchronize the flows; fixed intervals would fire
	// all four senders at identical instants and collide every round.
	flows := []netsim.Flow{
		{From: 0, To: 3, Payload: 20, Interval: time.Minute, Poisson: true}, // intra A
		{From: 4, To: 7, Payload: 20, Interval: time.Minute, Poisson: true}, // intra B
		{From: 0, To: 7, Payload: 20, Interval: time.Minute, Poisson: true}, // cross
		{From: 5, To: 2, Payload: 20, Interval: time.Minute, Poisson: true}, // cross
	}
	res := &Result{
		Title:  "extension: partition and merge, two bridged 4-node clusters",
		Header: []string{"phase", "intra PDR", "cross PDR", "cross routes at end"},
	}
	crossRoutes := func() int {
		n := 0
		for _, i := range groupA {
			for _, j := range groupB {
				if _, ok := sim.Handle(i).Mesher.Table().NextHop(sim.Handle(j).Addr); ok {
					n++
				}
			}
		}
		return n
	}
	// Each phase runs its own bounded flows so phases do not overlap.
	runPhase := func(name string) error {
		var stats []*netsim.TrafficStats
		for _, f := range flows {
			f.Count = int(phase / f.Interval / 2) // finish well inside the phase
			st, err := sim.StartFlow(f)
			if err != nil {
				return err
			}
			stats = append(stats, st)
		}
		sim.Run(phase)
		intra := netsim.MergeStats(stats[:2])
		cross := netsim.MergeStats(stats[2:])
		res.AddRow(name, fmtPct(intra.DeliveryRatio()), fmtPct(cross.DeliveryRatio()),
			fmt.Sprintf("%d", crossRoutes()))
		return nil
	}
	// Phase 1: healthy mesh.
	if err := runPhase("connected"); err != nil {
		return nil, err
	}
	// Phase 2: sever the clusters.
	if err := sim.Partition(groupA, groupB); err != nil {
		return nil, err
	}
	if err := runPhase("partitioned"); err != nil {
		return nil, err
	}
	// Phase 3: heal and measure the re-merge.
	if err := sim.Heal(groupA, groupB); err != nil {
		return nil, err
	}
	merge, ok := sim.RunUntil(func() bool { return crossRoutes() == 16 }, 30*time.Second, 4*time.Hour)
	if err := runPhase("healed"); err != nil {
		return nil, err
	}
	mergeStr := ">4h"
	if ok {
		mergeStr = fmtDur(merge)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"intra-cluster delivery rides through the partition; cross traffic black-holes until stale routes poison out, and the mesh re-merges %s after the heal with no operator action",
		mergeStr))
	return res, nil
}
