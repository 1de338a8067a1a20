package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// E6LargePayload measures the reliable transport's transfer time and
// goodput across payload sizes and hop counts.
func E6LargePayload(opt Options) (*Result, error) {
	sizes := []int{512, 1024, 2048, 4096, 8192}
	hops := []int{1, 2, 4}
	res := &Result{
		Title:  "reliable large-payload transfer (stop-and-wait, clean channel)",
		Header: []string{"size B", "hops", "chunks", "time", "goodput B/s"},
	}
	type cell struct{ size, hops int }
	var cells []cell
	for _, size := range sizes {
		for _, h := range hops {
			cells = append(cells, cell{size, h})
		}
	}
	if err := res.sweep(len(cells), func(i int) ([]string, error) {
		size, h := cells[i].size, cells[i].hops
		topo, err := geo.Line(h+1, chainSpacing)
		if err != nil {
			return nil, err
		}
		sim, err := converged(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		src := sim.Handle(0)
		if _, err := src.Mesher.SendReliable(sim.Handle(h).Addr, make([]byte, size)); err != nil {
			return nil, err
		}
		for tries := 0; len(src.StreamEvents) == 0 && tries < 720; tries++ {
			sim.Run(10 * time.Second)
		}
		if len(src.StreamEvents) == 0 || src.StreamEvents[0].Err != nil {
			return nil, fmt.Errorf("E6: transfer %dB/%dhops failed", size, h)
		}
		ev := src.StreamEvents[0]
		return []string{fmt.Sprintf("%d", size), fmt.Sprintf("%d", h),
			fmt.Sprintf("%d", ev.Chunks), fmtDur(ev.Elapsed),
			fmtF(float64(size)/ev.Elapsed.Seconds(), 1)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"transfer time scales linearly in chunks and in hops (stop-and-wait pays one mesh round-trip per chunk)")
	return res, nil
}

// E7Baseline compares LoRaMesher against controlled flooding on the same
// field and workload: delivery, latency, and transmission cost, replicated
// across several topology seeds so the headline factor is not a
// single-draw artifact.
func E7Baseline(opt Options) (*Result, error) {
	n := 12
	dur := 2 * time.Hour
	seeds := []int64{opt.Seed, opt.Seed + 1, opt.Seed + 2}
	res := &Result{
		Title:  fmt.Sprintf("LoRaMesher vs flooding: %d nodes, Poisson unicast, mean of %d seeds", n, len(seeds)),
		Header: []string{"protocol", "PDR", "mean latency", "tx frames", "tx per delivery", "airtime"},
	}
	type outcome struct {
		pdr      float64
		latency  time.Duration
		txFrames float64
		perDel   float64
		airtime  time.Duration
	}
	run := func(kind forward.Kind, seed int64) (*outcome, error) {
		side := 12000.0 * math.Sqrt(float64(n)/4)
		topo, err := geo.ConnectedRandomGeometric(n, side, side, 12000, seed, 1000)
		if err != nil {
			return nil, err
		}
		sim, err := converged(netsim.Config{Topology: topo, Protocol: kind, Node: expNode(), Seed: seed})
		if err != nil {
			return nil, err
		}
		// Fixed unicast pairs i -> (i+n/2) mod n, Poisson.
		all, err := sim.StartPairs(4 * time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		total := netsim.MergeStats(all)
		snap := sim.AggregateMetrics().Snapshot()
		tx := snap["total.tx.frames"]
		per := 0.0
		if total.Delivered > 0 {
			per = tx / float64(total.Delivered)
		}
		return &outcome{
			pdr:      total.DeliveryRatio(),
			latency:  total.MeanLatency(),
			txFrames: tx,
			perDel:   per,
			airtime:  sim.TotalAirtime(),
		}, nil
	}
	// Every (protocol, seed) replicate is independent; fan them all out
	// at once and fold the means afterwards in fixed index order, so the
	// float sums associate identically however the runs were scheduled.
	kinds := []forward.Kind{forward.KindProactive, forward.KindFlooding}
	type point struct {
		kind forward.Kind
		seed int64
	}
	var points []point
	for _, kind := range kinds {
		for _, seed := range seeds {
			points = append(points, point{kind, seed})
		}
	}
	outcomes, err := forEachPoint(len(points), func(i int) (*outcome, error) {
		return run(points[i].kind, points[i].seed)
	})
	if err != nil {
		return nil, err
	}
	mean := func(kindIdx int) *outcome {
		var agg outcome
		for s := range seeds {
			o := outcomes[kindIdx*len(seeds)+s]
			agg.pdr += o.pdr
			agg.latency += o.latency
			agg.txFrames += o.txFrames
			agg.perDel += o.perDel
			agg.airtime += o.airtime
		}
		k := float64(len(seeds))
		agg.pdr /= k
		agg.latency /= time.Duration(len(seeds))
		agg.txFrames /= k
		agg.perDel /= k
		agg.airtime /= time.Duration(len(seeds))
		return &agg
	}
	mesher := mean(0)
	flood := mean(1)
	for _, row := range []struct {
		name string
		o    *outcome
	}{{"LoRaMesher", mesher}, {"flooding", flood}} {
		res.AddRow(row.name, fmtPct(row.o.pdr), fmtDur(row.o.latency),
			fmtF(row.o.txFrames, 0), fmtF(row.o.perDel, 1), fmtDur(row.o.airtime))
	}
	if flood.airtime > 0 && mesher.airtime > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"flooding spends %.1fx the airtime of routed forwarding for comparable delivery (cost grows with network size)",
			float64(flood.airtime)/float64(mesher.airtime)))
	}
	return res, nil
}

// E8DutyCycle runs a day of sensornet telemetry and audits every node
// against the EU868 1% budget.
func E8DutyCycle(opt Options) (*Result, error) {
	n := 12
	dur := 24 * time.Hour
	topo, err := geo.ConnectedRandomGeometric(n+1, 25000, 25000, 12000, opt.Seed, 1000)
	if err != nil {
		return nil, err
	}
	sim, err := converged(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	stats, err := sim.StartManyToOne(24, 10*time.Minute)
	if err != nil {
		return nil, err
	}
	sim.Run(dur)
	res := &Result{
		Title:  fmt.Sprintf("duty-cycle audit: %d sensors -> sink, %v of telemetry", n, dur),
		Header: []string{"node", "role", "sent", "delivered", "airtime/h", "duty cycle", "within 1%"},
	}
	budget := 36 * time.Second
	violations := 0
	for i := 0; i <= n; i++ {
		h := sim.Handle(i)
		role := "sensor"
		if i == 0 {
			role = "sink"
		}
		perHour := h.Mesher.AirtimeUsed() / time.Duration(dur.Hours())
		duty := float64(perHour) / float64(time.Hour)
		within := perHour <= budget
		if !within {
			violations++
		}
		sent, del := 0, 0
		if st := statsFor(stats, i); st != nil {
			sent, del = st.Offered, st.Delivered
		}
		res.AddRow(h.Addr.String(), role, fmt.Sprintf("%d", sent), fmt.Sprintf("%d", del),
			fmtDur(perHour), fmtPct(duty), fmt.Sprintf("%v", within))
	}
	total := netsim.MergeStats(stats)
	res.Notes = append(res.Notes,
		fmt.Sprintf("network PDR %s over %v; %d duty-cycle violations (regulator gates every transmission)",
			fmtPct(total.DeliveryRatio()), dur, violations))
	return res, nil
}

func statsFor(all []*netsim.TrafficStats, i int) *netsim.TrafficStats {
	if i < 0 || i >= len(all) {
		return nil
	}
	return all[i]
}

// E9Density grows the node count in a fixed field: more nodes mean more
// beacons and more forwarding on the same spectrum, so collisions climb
// and delivery sags — the mesh's scalability ceiling.
func E9Density(opt Options) (*Result, error) {
	sizes := []int{5, 10, 20, 30, 40}
	dur := time.Hour
	res := &Result{
		Title:  "density sweep: fixed 30x30 km field, Poisson unicast",
		Header: []string{"nodes", "mean degree", "PDR", "mean latency", "collision losses", "tx frames"},
	}
	if err := res.sweep(len(sizes), func(p int) ([]string, error) {
		n := sizes[p]
		topo, err := geo.ConnectedRandomGeometric(n, 30000, 30000, 12000, opt.Seed, 2000)
		if err != nil {
			return nil, err
		}
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(10*time.Second, 6*time.Hour); !ok {
			return []string{fmt.Sprintf("%d", n), "-", "no convergence", "-", "-", "-"}, nil
		}
		all, err := sim.StartPairs(3 * time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		total := netsim.MergeStats(all)
		ms := sim.Medium.Stats()
		snap := sim.AggregateMetrics().Snapshot()
		return []string{fmt.Sprintf("%d", n),
			fmtF(geo.MeanDegree(topo, 13000), 1),
			fmtPct(total.DeliveryRatio()),
			fmtDur(total.MeanLatency()),
			fmt.Sprintf("%d", ms.LostCollision),
			fmtF(snap["total.tx.frames"], 0)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"collision losses grow superlinearly with density while PDR degrades gracefully — capture lets the strongest frame survive")
	return res, nil
}

// E10Repair kills the router on the only short path and measures the
// outage: time from failure until traffic flows again, which for the
// prototype is governed by the routing entry TTL.
func E10Repair(opt Options) (*Result, error) {
	ttls := []time.Duration{2 * time.Minute, 5 * time.Minute, 10 * time.Minute}
	res := &Result{
		Title:  "route repair after router death (diamond topology, redundant path)",
		Header: []string{"entry TTL", "repair time", "lost in outage", "delivered after"},
	}
	if err := res.sweep(len(ttls), func(i int) ([]string, error) {
		return repairCell(opt.Seed, ttls[i], false)
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"repair ≈ entry TTL + one HELLO period: the dead route must expire before the alternative is adopted",
	)
	return res, nil
}

// repairCell runs one router-failure scenario; used by E10 and A1.
func repairCell(seed int64, ttl time.Duration, poisoning bool) ([]string, error) {
	topo := &geo.Topology{Name: "diamond", Positions: []geo.Point{
		{X: 0, Y: 0}, {X: 8000, Y: 3000}, {X: 8000, Y: -3000}, {X: 16000, Y: 0},
	}}
	cfg := expNode()
	cfg.Routing = routing.Config{EntryTTL: ttl, Poisoning: poisoning}
	sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: seed})
	if err != nil {
		return nil, err
	}
	// Steer the 0->3 route through node 1, then kill node 1.
	if via, _ := sim.Handle(0).Mesher.Table().NextHop(sim.Handle(3).Addr); via == sim.Handle(2).Addr {
		// Symmetric topology: the route may go either way; kill the
		// router actually in use.
		if err := sim.Kill(2); err != nil {
			return nil, err
		}
	} else {
		if err := sim.Kill(1); err != nil {
			return nil, err
		}
	}
	// Constant probe traffic across the failure.
	stats, err := sim.StartFlow(netsim.Flow{
		From: 0, To: 3, Payload: 16, Interval: 15 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	killAt := sim.Now()
	repaired := func() bool { return stats.Delivered > 0 }
	outage, ok := sim.RunUntil(repaired, 5*time.Second, 4*time.Hour)
	if !ok {
		return []string{fmtDur(ttl), ">4h", "-", "-"}, nil
	}
	lost := stats.Offered - stats.Delivered
	sim.Run(5 * time.Minute) // confirm steady delivery after repair
	after := stats.Delivered
	_ = killAt
	return []string{fmtDur(ttl), fmtDur(outage), fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", after)}, nil
}
