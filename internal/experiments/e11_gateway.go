package experiments

import (
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/gateway"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// E11GatewayUplink measures the store-and-forward bridge end to end:
// telemetry flows many-to-one into a sink-side gateway whose uplink
// backend goes dark, and two minutes into that outage the mesh also
// partitions the sink away for a sweep of durations — a gateway site
// losing first its backhaul, then its radio neighborhood. The table
// reports what survives: uplink delivery ratio relative to the readings
// the sink heard, exactly-once integrity, spool high-water mark, breaker
// activity, and the age readings had reached when they finally left the
// spool.
func E11GatewayUplink(opt Options) (*Result, error) {
	n := 5
	outages := []time.Duration{0, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute}
	res := &Result{
		Title: fmt.Sprintf("gateway uplink under backend outage + sink partition, %d-node chain", n),
		Header: []string{"partition", "at sink", "uplinked", "ratio", "dupes",
			"spool max", "breaker opens", "mean age", "p95 age"},
	}

	if err := res.sweep(len(outages), func(p int) ([]string, error) {
		outage := outages[p]
		backend := gateway.NewBackend()
		srv := httptest.NewServer(backend)
		defer srv.Close()

		topo, err := geo.Line(n, chainSpacing)
		if err != nil {
			return nil, err
		}
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		g, err := gateway.New(gateway.Config{
			URLs:             []string{srv.URL},
			BatchSize:        8,
			FlushInterval:    30 * time.Second,
			RetryBase:        10 * time.Second,
			RetryMax:         time.Minute,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Minute,
		})
		if err != nil {
			return nil, err
		}
		defer g.Close()
		if err := gateway.AttachSim(sim, 0, g); err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(30*time.Second, 2*time.Hour); !ok {
			return nil, fmt.Errorf("E11: mesh never converged")
		}
		if _, err := sim.StartManyToOne(16, time.Minute); err != nil {
			return nil, err
		}

		// Warm-up with everything healthy, then the staged failure: the
		// backend goes dark first (readings still arrive, so the spool
		// absorbs them and the breaker trips), and two minutes later the
		// mesh partitions the sink away for the swept duration.
		sim.Run(5 * time.Minute)
		spoolMax := g.Pending()
		sample := func(total time.Duration) {
			for remaining := total; remaining > 0; {
				step := 30 * time.Second
				if step > remaining {
					step = remaining
				}
				sim.Run(step)
				remaining -= step
				if p := g.Pending(); p > spoolMax {
					spoolMax = p
				}
			}
		}
		if outage > 0 {
			rest := make([]int, 0, n-1)
			for i := 1; i < n; i++ {
				rest = append(rest, i)
			}
			backend.SetFailing(true)
			sample(2 * time.Minute)
			if err := sim.Partition([]int{0}, rest); err != nil {
				return nil, err
			}
			sample(outage)
			if err := sim.Heal([]int{0}, rest); err != nil {
				return nil, err
			}
			backend.SetFailing(false)
		}
		// Recovery window, then drain the spool completely.
		sim.Run(10 * time.Minute)
		if p := g.Pending(); p > spoolMax {
			spoolMax = p
		}
		if _, ok := sim.RunUntil(func() bool { return g.Pending() == 0 },
			30*time.Second, time.Hour); !ok {
			return nil, fmt.Errorf("E11: spool never drained after outage %v", outage)
		}

		reg := g.Metrics()
		atSink := len(sim.Handle(0).Msgs)
		uplinked := backend.Distinct()
		ratio := 0.0
		if atSink > 0 {
			ratio = float64(uplinked) / float64(atSink)
		}
		age := reg.Histogram("gw.uplink.age_ms")
		return []string{fmtDur(outage),
			fmt.Sprintf("%d", atSink),
			fmt.Sprintf("%d", uplinked),
			fmtF(100*ratio, 1) + "%",
			fmt.Sprintf("%d", backend.Duplicates()),
			fmt.Sprintf("%d", spoolMax),
			fmt.Sprintf("%d", reg.Counter("gw.breaker.opened").Value()),
			fmtDur(time.Duration(age.Mean()) * time.Millisecond),
			fmtDur(time.Duration(age.Quantile(0.95)) * time.Millisecond)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"ratio is uplinked/at-sink: the spool makes the backend outage invisible (100% with zero duplicates) while the partition only suppresses arrivals",
		"mean/p95 age show readings waiting out the outage in the spool rather than being lost")
	return res, nil
}
