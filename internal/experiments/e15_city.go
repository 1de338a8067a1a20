package experiments

import (
	"fmt"
	"time"

	"repro/internal/citysim"
)

// E15CityMesh runs the same telemetry workload on the city-scale executor
// at two network sizes: at 1,000 nodes once on the serial reference
// (single wheel, full O(n) station scans — the design that caps the
// per-node engine at demo scale) and at 2, 4 and 8 shards, and at 10,000
// nodes at 4 and 8 shards. The table lines up sinks, cells, frames,
// delivery, latency and resident state. The digest column is the
// determinism witness: rows of one size must print the same digest
// whatever the executor, which the experiment asserts. Every cell is a
// function of the seed; what a shard buys in wall time is bench/'s city
// workloads.
func E15CityMesh(opt Options) (*Result, error) {
	type point struct {
		nodes  int
		shards int // 0 is the serial reference
		sim    time.Duration
	}
	// At 10k nodes six minutes is just long enough for the first
	// telemetry readings (which fire between 3 and 9 min) to reach nearby
	// sinks; routes to distant sinks are still converging, so delivery is
	// partial by design.
	points := []point{
		{1000, 0, 20 * time.Minute},
		{1000, 2, 20 * time.Minute},
		{1000, 4, 20 * time.Minute},
		{1000, 8, 20 * time.Minute},
		{10000, 4, 6 * time.Minute},
		{10000, 8, 6 * time.Minute},
	}

	res := &Result{
		Title:  "city mesh: sharded-simulator scaling curve (telemetry workload, sinks every ~640 nodes)",
		Header: []string{"nodes", "executor", "sim", "sinks", "cells", "frames", "PDR", "mean lat", "state", "digest"},
	}
	if err := res.sweep(len(points), func(i int) ([]string, error) {
		p := points[i]
		sim, err := citysim.New(citysim.Config{
			Nodes:  p.nodes,
			Shards: p.shards,
			Seed:   opt.Seed,
			// City-telemetry cadence: beacons every 2 min, readings
			// every 6 min, so the default sink density (~1 per 640
			// nodes) keeps last-hop channel utilization under ~15%.
			HelloPeriod: 2 * time.Minute,
			DataPeriod:  6 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("E15 (n=%d shards=%d): %w", p.nodes, p.shards, err)
		}
		if err := sim.Run(p.sim); err != nil {
			return nil, fmt.Errorf("E15 (n=%d shards=%d): %w", p.nodes, p.shards, err)
		}
		st := sim.Stats()
		executor := "serial"
		if p.shards > 0 {
			executor = fmt.Sprintf("%d-shard", st.Shards)
		}
		return []string{
			fmt.Sprintf("%d", st.Nodes),
			executor,
			fmtDur(p.sim),
			fmt.Sprintf("%d", st.Sinks),
			fmt.Sprintf("%d", st.Cells),
			fmt.Sprintf("%d", st.FramesSent),
			fmtPct(st.PDR()),
			fmtDur(st.MeanLatency()),
			fmtMB(st.StateBytes),
			fmt.Sprintf("%016x", sim.Digest()),
		}, nil
	}); err != nil {
		return nil, err
	}

	// Each row's digest must equal the first row's of its size.
	first := map[string][]string{}
	for _, row := range res.Rows {
		digest := len(row) - 1
		ref, ok := first[row[0]]
		if !ok {
			first[row[0]] = row
		} else if row[digest] != ref[digest] {
			return nil, fmt.Errorf("E15 (n=%s %s): digest %s diverged from %s's %s",
				row[0], row[1], row[digest], ref[1], ref[digest])
		}
	}
	res.Notes = append(res.Notes,
		"rows of equal size share a digest: the executor, serial or sharded at any count, is byte-identical per seed (asserted)",
		"state column is resident engine footprint (SoA slabs + link slabs + queues) and grows linearly with node count")
	return res, nil
}

func fmtMB(b uint64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}
