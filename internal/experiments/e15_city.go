package experiments

import (
	"fmt"
	"time"

	"repro/internal/citysim"
)

// E15CityMesh produces the city-scale scaling curve: the same telemetry
// workload at each network size runs once on the serial reference executor
// (single wheel, full O(n) station scans — the design that caps the
// per-node engine at demo scale) and once per shard count on the sharded
// executor, and the table lines up events/sec, wall-clock speedup,
// delivery, latency, and resident state. The digest column is the
// determinism witness: rows of the same size must print the same digest
// regardless of executor, which the experiment asserts. Wall-clock derived
// columns (wall, events/s, speedup) are machine-specific; everything else
// is byte-reproducible per seed.
//
// The run is serial by design (no sweep pool): rows measure
// wall time, which concurrent sweep workers would distort.
func E15CityMesh(opt Options) (*Result, error) {
	type size struct {
		nodes  int
		shards []int // 0 is the serial reference
		sim    time.Duration
	}
	var plan []size
	if opt.Quick {
		plan = []size{
			{1000, []int{0, 4}, 12 * time.Minute},
			{4000, []int{4}, 12 * time.Minute},
		}
	} else {
		plan = []size{
			{1000, []int{0, 2, 4, 8}, 20 * time.Minute},
			// At 10k the serial reference costs ~100ms of wall per
			// simulated second, so its horizon stays short: the row pins
			// digest equality and the speedup at scale. Six minutes is
			// just long enough for the first telemetry readings (which
			// fire between 3 and 9 min) to reach nearby sinks; routes to
			// distant sinks are still converging, so delivery is partial
			// by design — the 50k row carries the long-horizon PDR.
			{10000, []int{0, 4, 8}, 6 * time.Minute},
			// The RAM-fit row: sharded only (a full scan at this size
			// costs minutes of wall per simulated minute), long horizon
			// for a meaningful delivery figure.
			{50000, []int{8}, 20 * time.Minute},
		}
	}

	res := &Result{
		Title:  "city mesh: sharded-simulator scaling curve (telemetry workload, sinks every ~640 nodes)",
		Header: []string{"nodes", "executor", "sim", "sinks", "cells", "frames", "PDR", "mean lat", "events/s", "speedup", "state", "digest"},
	}

	var bestSpeedup float64
	var bestLabel string
	for _, sz := range plan {
		var serialWall time.Duration
		var serialDigest uint64
		for _, shards := range sz.shards {
			sim, err := citysim.New(citysim.Config{
				Nodes:  sz.nodes,
				Shards: shards,
				Seed:   opt.Seed,
				// City-telemetry cadence: beacons every 2 min, readings
				// every 6 min, so the default sink density (~1 per 640
				// nodes) keeps last-hop channel utilization under ~15%.
				HelloPeriod: 2 * time.Minute,
				DataPeriod:  6 * time.Minute,
			})
			if err != nil {
				return nil, fmt.Errorf("E15 (n=%d shards=%d): %w", sz.nodes, shards, err)
			}
			if err := sim.Run(sz.sim); err != nil {
				return nil, fmt.Errorf("E15 (n=%d shards=%d): %w", sz.nodes, shards, err)
			}
			st := sim.Stats()
			digest := sim.Digest()

			executor := "serial"
			speedup := "1.00x"
			if shards == 0 {
				serialWall = st.Wall
				serialDigest = digest
			} else {
				executor = fmt.Sprintf("%d-shard", st.Shards)
				if serialWall > 0 {
					ratio := serialWall.Seconds() / st.Wall.Seconds()
					speedup = fmtF(ratio, 2) + "x"
					if ratio > bestSpeedup {
						bestSpeedup = ratio
						bestLabel = fmt.Sprintf("%d nodes / %d shards", sz.nodes, st.Shards)
					}
				} else {
					speedup = "-"
				}
				if serialWall > 0 && digest != serialDigest {
					return nil, fmt.Errorf("E15 (n=%d shards=%d): digest %016x diverged from serial %016x",
						sz.nodes, shards, digest, serialDigest)
				}
			}
			res.AddRow(
				fmt.Sprintf("%d", st.Nodes),
				executor,
				fmtDur(sz.sim),
				fmt.Sprintf("%d", st.Sinks),
				fmt.Sprintf("%d", st.Cells),
				fmt.Sprintf("%d", st.FramesSent),
				fmtPct(st.PDR()),
				fmtDur(st.MeanLatency()),
				fmt.Sprintf("%.0f", st.EventsPerSec()),
				speedup,
				fmtMB(st.StateBytes),
				fmt.Sprintf("%016x", digest),
			)
		}
	}
	res.Notes = append(res.Notes,
		"rows of equal size share a digest: the sharded executor is byte-identical to the serial reference per seed (asserted)")
	if bestLabel != "" {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"best wall-clock speedup %.1fx at %s; the win is algorithmic (cell-bounded neighbor scans vs full O(n) scans) and grows with node count",
			bestSpeedup, bestLabel))
	}
	res.Notes = append(res.Notes,
		"state column is resident engine footprint (SoA slabs + link slabs + queues): the city fits in RAM at 50k nodes and extrapolates linearly to 100k",
		"wall-clock columns (events/s, speedup) are machine-specific; all other columns reproduce byte-identically per seed")
	return res, nil
}

func fmtMB(b uint64) string {
	return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
}
