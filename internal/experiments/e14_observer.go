package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/span"
)

// E14Observer measures what always-on observability costs: the same 3-hop
// datagram workload runs three times — bare, with hop-level span capture
// armed (segments into the tracer's ring, no sink, narrative off), and
// with span capture plus the mesh health monitor polling — and the table
// puts delivery, latency, and heap allocations side by side. Under
// virtual time the observer must be behavior-neutral: spans and health
// polls read the simulation, never perturb it, so PDR and latency are
// asserted identical across modes and the only degree of freedom left is
// the allocation count. The run is serial by design (no sweep pool): the
// allocation deltas come from runtime.ReadMemStats, a process-global
// counter that concurrent sweep workers would pollute.
func E14Observer(opt Options) (*Result, error) {
	count := 30
	interval := time.Minute

	res := &Result{
		Title: fmt.Sprintf("observer overhead: spans and health monitor on vs off (%d datagrams, 3 hops)",
			count),
		Header: []string{"observer", "PDR", "mean lat", "heap allocs", "segments", "health polls"},
	}

	type mode struct {
		name   string
		spans  int
		health time.Duration
	}
	modes := []mode{
		{"off", 0, 0},
		{"spans", 16384, 0},
		{"spans+health", 16384, 30 * time.Second},
	}

	var basePDR, baseLat string
	for _, m := range modes {
		topo, err := geo.Line(4, chainSpacing)
		if err != nil {
			return nil, err
		}
		sim, err := netsim.New(netsim.Config{
			Topology: topo, Node: expNode(), Seed: opt.Seed,
			SpanCapacity: m.spans, HealthInterval: m.health,
		})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(30*time.Second, 2*time.Hour); !ok {
			return nil, fmt.Errorf("E14 (%s): mesh never converged", m.name)
		}
		stats, err := sim.StartFlow(netsim.Flow{
			From: 0, To: 3, Payload: 24, Interval: interval, Count: count, Poisson: true,
		})
		if err != nil {
			return nil, err
		}

		// Allocation accounting brackets the measured run only: setup and
		// convergence (identical across modes) stay outside, and a forced
		// GC settles the heap so the delta is the run's own.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim.Run(time.Duration(count)*interval + 10*time.Minute)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs

		if err := sim.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("E14 (%s): invariants: %w", m.name, err)
		}
		pdr := fmtPct(stats.DeliveryRatio())
		lat := fmtDur(stats.MeanLatency())
		if m.name == "off" {
			basePDR, baseLat = pdr, lat
		} else if pdr != basePDR || lat != baseLat {
			// The observer changed what it observed — a bug, not overhead.
			return nil, fmt.Errorf("E14 (%s): behavior not neutral: PDR %s vs %s, latency %s vs %s",
				m.name, pdr, basePDR, lat, baseLat)
		}

		segments := "—"
		if sim.Tracer.Segments() {
			segments = fmt.Sprintf("%d", len(span.FromEvents(sim.Tracer.Events())))
		}
		polls := "—"
		if sim.Health != nil {
			polls = fmt.Sprintf("%d", sim.Health.Verdict()["polls"])
		}
		res.AddRow(m.name, pdr, lat, fmt.Sprintf("%d", allocs), segments, polls)
	}

	res.Notes = []string{
		"Observability is behavior-neutral by construction: span capture and",
		"health polls read the simulation without perturbing it, so delivery and",
		"latency are identical across the three rows (the run fails if not).",
		"E14 prices span segments and health polls, not the narrative tracer,",
		"and counts heap allocations, not wall time: a segment is one slot of",
		"the tracer's pre-sized ring (0 allocs/op guard in internal/trace), so",
		"`spans` allocates what `off` does and the `spans+health` delta is the",
		"per-poll health snapshots. DESIGN.md prices every observer class in wall time.",
	}
	return res, nil
}
