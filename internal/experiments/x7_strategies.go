package experiments

import (
	"fmt"
	"time"

	"repro/internal/citysim"
	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/netsim"
)

// X7Strategies is the four-way forwarding-strategy shoot-out the strategy
// API exists for: the same workloads run under proactive (LoRaMesher),
// reactive (AODV-lite), ICN (named-data pub-sub with in-mesh caching),
// and slotted (TDMA real-time mode), selected purely by configuration.
// Three sections share one table:
//
//  1. the E12-derived chaos matrix on the 5-node chain — delivery and
//     latency per strategy under injected faults;
//  2. a many-reader workload (one producer, every other node reads the
//     same datum each period) — the content-centric case, where ICN's
//     interest aggregation and caching must beat per-reader unicast and
//     flooding on airtime (asserted, with the cache-hit evidence in the
//     table);
//  3. the city-scale topology — all four strategies on the sharded
//     simulator, each row carrying its determinism digest.
//
// The slotted rows declare a latency bound via the superframe; the
// baseline (fault-free) slotted row must finish with zero latency_bound
// health violations (asserted). Cells are byte-identical per (plan,
// seed) at any GOMAXPROCS: every sweep point builds its own
// simulation and rows are assembled in sweep order.
func X7Strategies(opt Options) (*Result, error) {
	const (
		active     = 2 * time.Hour
		manyFor    = 2 * time.Hour
		cityNodes  = 10000
		cityShards = 4
		cityFor    = 15 * time.Minute
	)

	res := &Result{
		Title: fmt.Sprintf("forwarding-strategy shoot-out: chaos chain (%v), many-reader (%v), city n=%d",
			active, manyFor, cityNodes),
		Header: []string{"strategy", "scenario", "offered", "delivered", "PDR",
			"mean lat", "air/node/h", "strategy detail", "digest"},
	}

	// --- section 1: chaos matrix × four strategies -------------------
	kinds := []forward.Kind{
		forward.KindProactive, forward.KindReactive, forward.KindICN, forward.KindSlotted,
	}
	scenarios := x7Scenarios()
	if err := res.sweep(len(kinds)*len(scenarios), func(i int) ([]string, error) {
		return x7ChainCell(opt, kinds[i/len(scenarios)], scenarios[i%len(scenarios)], active)
	}); err != nil {
		return nil, err
	}

	// --- section 2: many-reader workload -----------------------------
	type manyCell struct {
		row  []string
		air  time.Duration
		hits float64
	}
	manyKinds := []forward.Kind{forward.KindProactive, forward.KindFlooding, forward.KindICN}
	manyCells, err := forEachPoint(len(manyKinds), func(i int) (manyCell, error) {
		row, air, hits, err := x7ManyReaderCell(opt, manyKinds[i], manyFor)
		return manyCell{row, air, hits}, err
	})
	if err != nil {
		return nil, err
	}
	for _, c := range manyCells {
		res.AddRow(c.row...)
	}
	proAir, floodAir, icnAir := manyCells[0].air, manyCells[1].air, manyCells[2].air
	if manyCells[2].hits == 0 {
		return nil, fmt.Errorf("X7: many-reader ICN run recorded no content-store hits")
	}
	if icnAir >= proAir || icnAir >= floodAir {
		return nil, fmt.Errorf("X7: ICN airtime %v does not beat proactive %v / flooding %v on the many-reader workload",
			icnAir, proAir, floodAir)
	}

	// --- section 3: city scale ---------------------------------------
	cityStrats := []string{"proactive", "reactive", "icn", "slotted"}
	if err := res.sweep(len(cityStrats), func(i int) ([]string, error) {
		return x7CityCell(opt, cityStrats[i], cityNodes, cityShards, cityFor)
	}); err != nil {
		return nil, err
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("many-reader airtime: ICN %v/node/h vs proactive %v and flooding %v — interest aggregation and in-mesh caching collapse N reads of one datum into one flood plus cached answers (asserted, with the cache-hit count in the table)",
			icnAir, proAir, floodAir),
		"ICN PDR counts one offer per (reader, round); readers re-express unsatisfied interests (the strategy never retransmits — retry is the application's job), so pull-based delivery converges where a lost push datagram is simply gone",
		"the slotted baseline row must end with zero latency_bound health violations (asserted); under crash/loss scenarios violations are reported, not hidden — a TDMA schedule bounds queueing, not outages",
		"city rows carry the citysim determinism digest: the same (strategy, seed) reproduces the digest byte-identically at any shard count or -parallel setting",
		"city ICN delivery is a round trip (interest out, data back) bounded by the hop TTL, so within this horizon only nodes whose interest flood reaches a sink and returns are served — the airtime column, not PDR, is ICN's city-scale story")
	return res, nil
}

// x7Scenarios is the E12-derived fault set the chain section sweeps: no
// faults, steady random loss on a middle link, and a mid-route crash.
func x7Scenarios() []struct {
	name string
	plan *faults.Plan
} {
	min := faults.Duration(time.Minute)
	return []struct {
		name string
		plan *faults.Plan
	}{
		{"baseline (no faults)", &faults.Plan{Name: "baseline"}},
		{"bernoulli p=0.15 on 1-2", &faults.Plan{Name: "bernoulli", Links: []faults.LinkFault{
			{From: 1, To: 2, Symmetric: true, Kind: faults.KindBernoulli, P: 0.15},
		}}},
		{"crash node 2 (8min down)", &faults.Plan{Name: "crash", Crashes: []faults.Crash{
			{Node: 2, At: 20 * min, Downtime: 8 * min},
		}}},
	}
}

// x7NamePrefix names the per-round datum every X7 ICN reader pulls.
const x7NamePrefix = "x7/reading/"

// x7Content is the deterministic producer function: content is a pure
// function of the name, so every cached answer is checkable.
func x7Content(name string) []byte { return []byte("x7(" + name + ")") }

// x7Sim assembles a converged chain-or-grid simulation for one strategy,
// keeping every strategy on the same radio profile and seed; the strategy
// is its name. Node 0 answers ICN interests.
func x7Sim(opt Options, kind forward.Kind, topo *geo.Topology) (*netsim.Sim, error) {
	sim, err := converged(netsim.Config{
		Topology: topo, Protocol: kind, Node: expNode(), Seed: opt.Seed,
		ICNProduce: func(i int, name string) []byte {
			if i == 0 {
				return x7Content(name)
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("X7 %s: %w", kind, err)
	}
	return sim, nil
}

// x7ChainCell evaluates one (strategy, chaos scenario) cell on the
// 5-node chain under the shared telemetry workload.
func x7ChainCell(opt Options, kind forward.Kind, sc struct {
	name string
	plan *faults.Plan
}, active time.Duration) ([]string, error) {
	const n = 5
	topo, err := geo.Line(n, chainSpacing)
	if err != nil {
		return nil, err
	}
	sim, err := x7Sim(opt, kind, topo)
	if err != nil {
		return nil, err
	}
	if err := sim.ApplyFaultPlan(sc.plan); err != nil {
		return nil, err
	}
	airStart := sim.TotalAirtime()

	// MergeStats snapshots by value, so push-strategy flows are merged
	// only after the run; the ICN accounting object is mutated in place.
	var stats *netsim.TrafficStats
	var flows []*netsim.TrafficStats
	if kind == forward.KindICN {
		stats, err = sim.StartInterestRounds(x7NamePrefix, 2*time.Minute, active)
	} else {
		flows, err = sim.StartManyToOne(16, 2*time.Minute)
	}
	if err != nil {
		return nil, err
	}
	sim.Run(active)
	if stats == nil {
		stats = netsim.MergeStats(flows)
	}

	airPerNodeH := time.Duration(float64(sim.TotalAirtime()-airStart) / n / active.Hours())
	detail, err := x7Detail(sim, kind, sc.name == "baseline (no faults)")
	if err != nil {
		return nil, err
	}
	return []string{
		string(kind), sc.name,
		fmt.Sprintf("%d", stats.Offered),
		fmt.Sprintf("%d", stats.Delivered),
		fmtPct(stats.DeliveryRatio()),
		fmtDur(stats.MeanLatency()),
		fmtDur(airPerNodeH),
		detail, "-",
	}, nil
}

// x7Detail renders the strategy-specific evidence column and enforces
// the slotted zero-violation bar on fault-free runs.
func x7Detail(sim *netsim.Sim, kind forward.Kind, faultFree bool) (string, error) {
	snap := sim.AggregateMetrics().Snapshot()
	switch kind {
	case forward.KindICN:
		return fmt.Sprintf("cs.hit=%.0f agg=%.0f",
			snap["total.icn.cs.hit"], snap["total.icn.interest.aggregated"]), nil
	case forward.KindSlotted:
		viol := snap["health.violation."+health.KindLatencyBound]
		if faultFree && viol != 0 {
			return "", fmt.Errorf("X7: slotted fault-free run has %.0f latency_bound violations, want 0", viol)
		}
		return fmt.Sprintf("defer=%.0f viol=%.0f",
			snap["total.slotted.gate.deferrals"], viol), nil
	}
	return "-", nil
}

// x7ManyReaderCell evaluates one strategy on the many-reader workload: a
// 4x4 grid, the producer in one corner, and every other node reading the
// same per-round datum every 10 minutes. Push strategies model the reads
// as one unicast per reader per round; ICN readers express interest in
// the round's name. Returns the row plus the airtime and cache-hit
// figures the caller's cross-strategy assertion needs.
func x7ManyReaderCell(opt Options, kind forward.Kind, runFor time.Duration) ([]string, time.Duration, float64, error) {
	const period = 10 * time.Minute
	topo, err := geo.Grid(4, 4, 8000)
	if err != nil {
		return nil, 0, 0, err
	}
	sim, err := x7Sim(opt, kind, topo)
	if err != nil {
		return nil, 0, 0, err
	}
	airStart := sim.TotalAirtime()

	readers := topo.N() - 1
	var stats *netsim.TrafficStats
	var flows []*netsim.TrafficStats
	if kind == forward.KindICN {
		if stats, err = sim.StartInterestRounds(x7NamePrefix, period, runFor); err != nil {
			return nil, 0, 0, err
		}
	} else {
		for r := 1; r <= readers; r++ {
			st, err := sim.StartFlow(netsim.Flow{
				From: 0, To: r, Payload: 24, Interval: period, Poisson: true,
			})
			if err != nil {
				return nil, 0, 0, err
			}
			flows = append(flows, st)
		}
	}
	sim.Run(runFor)
	if stats == nil {
		stats = netsim.MergeStats(flows)
	}

	n := float64(topo.N())
	airPerNodeH := time.Duration(float64(sim.TotalAirtime()-airStart) / n / runFor.Hours())
	snap := sim.AggregateMetrics().Snapshot()
	hits := snap["total.icn.cs.hit"]
	detail := "-"
	if kind == forward.KindICN {
		ratio := 0.0
		if denom := hits + snap["total.icn.cs.miss"]; denom > 0 {
			ratio = hits / denom
		}
		detail = fmt.Sprintf("cs.hit=%.0f agg=%.0f hit-ratio=%s",
			hits, snap["total.icn.interest.aggregated"], fmtPct(ratio))
	}
	row := []string{
		string(kind),
		fmt.Sprintf("many-reader 4x4 grid, %d readers", readers),
		fmt.Sprintf("%d", stats.Offered),
		fmt.Sprintf("%d", stats.Delivered),
		fmtPct(stats.DeliveryRatio()),
		fmtDur(stats.MeanLatency()),
		fmtDur(airPerNodeH),
		detail, "-",
	}
	return row, airPerNodeH, hits, nil
}

// x7CityCell runs one strategy on the city-scale sharded simulator and
// renders its row, digest included.
func x7CityCell(opt Options, strategy string, nodes, shards int, simFor time.Duration) ([]string, error) {
	sim, err := citysim.New(citysim.Config{
		Nodes:       nodes,
		Shards:      shards,
		Seed:        opt.Seed,
		Strategy:    strategy,
		HelloPeriod: 2 * time.Minute,
		DataPeriod:  6 * time.Minute,
	})
	if err != nil {
		return nil, fmt.Errorf("X7 city %s: %w", strategy, err)
	}
	if err := sim.Run(simFor); err != nil {
		return nil, fmt.Errorf("X7 city %s: %w", strategy, err)
	}
	st := sim.Stats()
	detail := "-"
	switch strategy {
	case "reactive":
		detail = fmt.Sprintf("solicits=%d", st.SolicitsSent)
	case "icn":
		detail = fmt.Sprintf("int=%d agg=%d cs.hit=%d",
			st.InterestsSent, st.InterestAggregated, st.CacheHits)
	case "slotted":
		detail = fmt.Sprintf("defer=%d", st.SlotDeferrals)
	}
	airPerNodeH := time.Duration(float64(st.AirtimeTotal) / float64(nodes) / simFor.Hours())
	return []string{
		strategy,
		fmt.Sprintf("citysim n=%d %d-shard %s", nodes, shards, fmtDur(simFor)),
		fmt.Sprintf("%d", st.Offered),
		fmt.Sprintf("%d", st.Delivered),
		fmtPct(st.PDR()),
		fmtDur(st.MeanLatency()),
		fmtDur(airPerNodeH),
		detail,
		fmt.Sprintf("%016x", sim.Digest()),
	}, nil
}
