package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// A1Poisoning compares the prototype's expiry-only route invalidation
// against route poisoning on the classic distance-vector pathology: when
// a destination dies, neighbors that keep advertising their stale routes
// to each other re-refresh them at climbing metrics (count-to-infinity),
// so phantom routes far outlive the entry TTL. Poisoned routes are
// advertised at the infinity metric and die in a few HELLO periods.
func A1Poisoning(opt Options) (*Result, error) {
	res := &Result{
		Title:  "phantom-route lifetime after endpoint death: expiry-only vs poisoning",
		Header: []string{"mode", "phantom route lifetime", "max phantom metric", "stale forwards"},
	}
	n := 6
	ttl := 5 * time.Minute
	modes := []bool{false, true}
	if err := res.sweep(len(modes), func(p int) ([]string, error) {
		poisoning := modes[p]
		topo, err := geo.Line(n, chainSpacing)
		if err != nil {
			return nil, err
		}
		cfg := expNode()
		cfg.Routing = routing.Config{EntryTTL: ttl, Poisoning: poisoning, MaxHops: 16}
		sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		dead := sim.Handle(n - 1)
		if err := sim.Kill(n - 1); err != nil {
			return nil, err
		}
		// Probe traffic toward the dead endpoint measures stale forwards.
		stats, err := sim.StartFlow(netsim.Flow{
			From: 0, To: n - 1, Payload: 16, Interval: time.Minute,
		})
		if err != nil {
			return nil, err
		}
		maxMetric := uint8(0)
		gone := func() bool {
			anyRoute := false
			for i := 0; i < n-1; i++ {
				if e, ok := sim.Handle(i).Mesher.Table().Lookup(dead.Addr); ok && !e.Poisoned() {
					anyRoute = true
					if e.Metric > maxMetric {
						maxMetric = e.Metric
					}
				}
			}
			return !anyRoute
		}
		lifetime, ok := sim.RunUntil(gone, 15*time.Second, 12*time.Hour)
		mode := "expiry-only"
		if poisoning {
			mode = "poisoning"
		}
		life := ">12h"
		if ok {
			life = fmtDur(lifetime)
		}
		return []string{mode, life, fmt.Sprintf("%d", maxMetric),
			fmt.Sprintf("%d", stats.Accepted)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"expiry-only suffers count-to-infinity: neighbors mutually refresh the dead route at climbing metrics until the hop cap, multiplying the phantom lifetime; poisoning kills it within ~TTL + a few HELLO periods")
	return res, nil
}

// A2HelloPeriod sweeps the beacon period: short periods converge and
// repair fast but burn airtime; long periods are cheap but slow. The
// prototype's 2-minute choice sits on this curve.
func A2HelloPeriod(opt Options) (*Result, error) {
	periods := []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute}
	n := 8
	res := &Result{
		Title:  fmt.Sprintf("HELLO period trade-off (%d-node random field)", n),
		Header: []string{"period", "convergence", "hello airtime/node/h", "% of 1% budget"},
	}
	side := 12000.0 * math.Sqrt(float64(n)/4)
	topo, err := geo.ConnectedRandomGeometric(n, side, side, 12000, opt.Seed, 1000)
	if err != nil {
		return nil, err
	}
	if err := res.sweep(len(periods), func(i int) ([]string, error) {
		period := periods[i]
		cfg := expNode()
		cfg.HelloPeriod = period
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		conv, ok := sim.TimeToConvergence(5*time.Second, 6*time.Hour)
		if !ok {
			return []string{fmtDur(period), ">6h", "-", "-"}, nil
		}
		// Measure steady-state overhead for a further hour.
		before := sim.TotalAirtime()
		sim.Run(time.Hour)
		perNodeH := (sim.TotalAirtime() - before) / time.Duration(n)
		budget := 36 * time.Second
		return []string{fmtDur(period), fmtDur(conv), fmtDur(perNodeH),
			fmtPct(float64(perNodeH) / float64(budget))}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"convergence scales with the period (diameter x period), overhead scales inversely — the knee sits near the prototype's 2 min")
	return res, nil
}

// A3ARQWindow sweeps the reliable transport's window: stop-and-wait (the
// prototype) against go-back-N over a half-duplex multi-hop chain.
func A3ARQWindow(opt Options) (*Result, error) {
	type variant struct {
		window int
		pacing time.Duration
	}
	variants := []variant{
		{1, 0}, {2, 0}, {4, 0}, {8, 0},
		{2, 3 * time.Second}, {4, 3 * time.Second},
	}
	size := 4096
	hops := 3
	res := &Result{
		Title:  fmt.Sprintf("ARQ window sweep: %d B over %d hops", size, hops),
		Header: []string{"window", "pacing", "time", "goodput B/s", "retransmissions"},
	}
	if err := res.sweep(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		w := v.window
		topo, err := geo.Line(hops+1, chainSpacing)
		if err != nil {
			return nil, err
		}
		cfg := expNode()
		cfg.StreamWindow = w
		cfg.StreamPacing = v.pacing
		cfg.StreamRetry = 20 * time.Second
		cfg.StreamMaxRetries = 10
		sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		src := sim.Handle(0)
		var ev *core.StreamEvent
		src.OnStreamDone = func(e core.StreamEvent) { ev = &e }
		if _, err := src.Mesher.SendReliable(sim.Handle(hops).Addr, make([]byte, size)); err != nil {
			return nil, err
		}
		pacingStr := "none"
		if v.pacing > 0 {
			pacingStr = fmtDur(v.pacing)
		}
		for tries := 0; ev == nil && tries < 720; tries++ {
			sim.Run(10 * time.Second)
		}
		if ev == nil {
			return []string{fmt.Sprintf("%d", w), pacingStr, ">2h", "-", "-"}, nil
		}
		if ev.Err != nil {
			return []string{fmt.Sprintf("%d", w), pacingStr, "failed", "-", fmt.Sprintf("%d", ev.Retransmissions)}, nil
		}
		return []string{fmt.Sprintf("%d", w), pacingStr, fmtDur(ev.Elapsed),
			fmtF(float64(size)/ev.Elapsed.Seconds(), 1),
			fmt.Sprintf("%d", ev.Retransmissions)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"windowing cannot win on a half-duplex single-channel chain: unpaced windows collide with their own forwarding (retransmissions explode, transfers can fail), and pacing wide enough to be safe degenerates to stop-and-wait timing — validating the prototype's stop-and-wait design")
	return res, nil
}

// A4SpreadingFactor sweeps SF7–SF12 on a fixed sparse field: low SFs lack
// range (disconnected mesh), high SFs connect everything but pay an
// airtime and duty-cycle price. The crossover picks the deployment SF.
func A4SpreadingFactor(opt Options) (*Result, error) {
	sfs := loraphy.AllSpreadingFactors()
	n := 10
	res := &Result{
		Title:  fmt.Sprintf("spreading-factor sweep: %d nodes on a fixed sparse field", n),
		Header: []string{"SF", "est. range", "connected", "convergence", "PDR", "airtime/node/h"},
	}
	// Field sized so SF7 cannot connect it but higher SFs can.
	topo, err := geo.ConnectedRandomGeometric(n, 60000, 60000, 28000, opt.Seed, 2000)
	if err != nil {
		return nil, err
	}
	if err := res.sweep(len(sfs), func(p int) ([]string, error) {
		sf := sfs[p]
		phy := loraphy.DefaultParams()
		phy.SpreadingFactor = sf
		rng, err := loraphy.MaxRangeMeters(phy, loraphy.DefaultLinkBudget(), loraphy.DefaultLogDistance(), 1e6)
		if err != nil {
			return nil, err
		}
		connected := geo.Connected(topo, rng)
		cfg := expNode()
		cfg.Phy = phy
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		convStr, pdrStr, airStr := ">2h", "-", "-"
		conv, ok := sim.TimeToConvergence(30*time.Second, 2*time.Hour)
		if ok {
			convStr = fmtDur(conv)
			all, err := sim.StartPairs(5 * time.Minute)
			if err != nil {
				return nil, err
			}
			before := sim.TotalAirtime()
			sim.Run(time.Hour)
			total := netsim.MergeStats(all)
			pdrStr = fmtPct(total.DeliveryRatio())
			airStr = fmtDur((sim.TotalAirtime() - before) / time.Duration(n))
		}
		return []string{sf.String(), fmt.Sprintf("%.0fkm", rng/1000),
			fmt.Sprintf("%v", connected), convStr, pdrStr, airStr}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"the crossover: the lowest SF whose range connects the field wins — higher SFs only multiply airtime (x2 per step) against the same duty budget")
	return res, nil
}

// A5CAD toggles listen-before-talk under contention: many nodes in mutual
// range transmitting to a hub. CAD defers transmissions that would
// collide, trading latency for delivery.
func A5CAD(opt Options) (*Result, error) {
	n := 10
	dur := time.Hour
	res := &Result{
		Title:  fmt.Sprintf("listen-before-talk: %d nodes in mutual range -> hub", n),
		Header: []string{"CAD", "PDR", "mean latency", "collision losses", "CAD deferrals"},
	}
	topo, err := geo.Star(n, 5000)
	if err != nil {
		return nil, err
	}
	cads := []bool{false, true}
	if err := res.sweep(len(cads), func(i int) ([]string, error) {
		cad := cads[i]
		cfg := expNode()
		cfg.CAD = cad
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(10*time.Second, 2*time.Hour); !ok {
			return nil, fmt.Errorf("A5: no convergence")
		}
		stats, err := sim.StartManyToOne(24, 90*time.Second)
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		total := netsim.MergeStats(stats)
		ms := sim.Medium.Stats()
		snap := sim.AggregateMetrics().Snapshot()
		return []string{fmt.Sprintf("%v", cad), fmtPct(total.DeliveryRatio()),
			fmtDur(total.MeanLatency()),
			fmt.Sprintf("%d", ms.LostCollision),
			fmtF(snap["total.cad.deferrals"], 0)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"CAD converts collision losses into short deferrals: delivery rises, latency pays milliseconds")
	return res, nil
}
