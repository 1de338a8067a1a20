package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/routing"
)

// chaosExpNode is the hardened configuration the chaos matrix measures:
// poisoning with triggered withdrawals plus capped-backoff streams, on
// timers fast enough that a two-hour run sees several fault cycles.
func chaosExpNode() core.Config {
	return core.Config{
		HelloPeriod:      time.Minute,
		Routing:          routing.Config{EntryTTL: 5 * time.Minute, Poisoning: true},
		TriggeredUpdates: true,
	}
}

// E12ChaosMatrix runs one telemetry workload under each fault class the
// injection layer models — random loss, burst loss, a one-way link, a
// flapping backbone link, a crash/restart, payload corruption, and all of
// them at once — and tabulates what the hardened stack still delivers.
// Every cell is deterministic in (scenario plan, seed).
func E12ChaosMatrix(opt Options) (*Result, error) {
	const n = 5
	runFor := 2 * time.Hour
	min := faults.Duration(time.Minute)

	scenarios := []struct {
		name string
		plan *faults.Plan
	}{
		{"baseline (no faults)", &faults.Plan{Name: "baseline"}},
		{"bernoulli p=0.2 on 1-2", &faults.Plan{Name: "bernoulli", Links: []faults.LinkFault{
			{From: 1, To: 2, Symmetric: true, Kind: faults.KindBernoulli, P: 0.2},
		}}},
		{"gilbert burst on 2-3", &faults.Plan{Name: "gilbert", Links: []faults.LinkFault{
			{From: 2, To: 3, Symmetric: true, Kind: faults.KindGilbert,
				PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.01, LossBad: 0.9},
		}}},
		{"asymmetric 1->2 block", &faults.Plan{Name: "asym", Links: []faults.LinkFault{
			{From: 1, To: 2, Kind: faults.KindBlock},
		}}},
		{"flap 1-2 (6min down/20min)", &faults.Plan{Name: "flap", Flaps: []faults.Flap{
			{A: 1, B: 2, Start: 10 * min, Period: 20 * min, Down: 6 * min, Count: 4},
		}}},
		{"crash node 2 (10min down)", &faults.Plan{Name: "crash", Crashes: []faults.Crash{
			{Node: 2, At: 30 * min, Downtime: 10 * min},
			{Node: 2, At: 80 * min, Downtime: 10 * min},
		}}},
		{"corruption 5%", &faults.Plan{Name: "corrupt",
			Corrupt: &faults.Corrupt{Rate: 0.05, MaxBits: 3}}},
		{"combined", &faults.Plan{Name: "combined",
			Links: []faults.LinkFault{
				{From: 2, To: 3, Symmetric: true, Kind: faults.KindBernoulli, P: 0.1},
			},
			Flaps: []faults.Flap{
				{A: 0, B: 1, Start: 15 * min, Period: 40 * min, Down: 6 * min, Count: 2},
			},
			Crashes: []faults.Crash{{Node: 3, At: 50 * min, Downtime: 10 * min}},
			Corrupt: &faults.Corrupt{Rate: 0.02, MaxBits: 3},
		}},
	}

	res := &Result{
		Title: fmt.Sprintf("chaos matrix: delivery under injected faults, %d-node chain, %v",
			n, runFor),
		Header: []string{"scenario", "offered", "delivered", "PDR", "mean lat",
			"fault drops", "expired", "trig HELLOs"},
	}

	if err := res.sweep(len(scenarios), func(i int) ([]string, error) {
		sc := scenarios[i]
		topo, err := geo.Line(n, chainSpacing)
		if err != nil {
			return nil, err
		}
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: chaosExpNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(30*time.Second, 2*time.Hour); !ok {
			return nil, fmt.Errorf("E12 %s: mesh never converged", sc.name)
		}
		if err := sim.ApplyFaultPlan(sc.plan); err != nil {
			return nil, err
		}
		all, err := sim.StartManyToOne(16, 2*time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(runFor)
		if err := sim.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("E12 %s: invariants: %w", sc.name, err)
		}

		total := netsim.MergeStats(all)
		snap := sim.AggregateMetrics().Snapshot()
		// Injector drops plus frames dropped at crashed nodes, which the
		// injector never sees ("sim.drop.fault.down").
		var drops float64
		for key, v := range snap {
			if strings.HasPrefix(key, "sim.drop.fault.") {
				drops += v
			}
		}
		return []string{sc.name,
			fmt.Sprintf("%d", total.Offered),
			fmt.Sprintf("%d", total.Delivered),
			fmtPct(total.DeliveryRatio()),
			fmtDur(total.MeanLatency()),
			fmt.Sprintf("%.0f", drops),
			fmt.Sprintf("%.0f", snap["total.routes.expired"]),
			fmt.Sprintf("%.0f", snap["total.hello.triggered"]),
		}, nil
	}); err != nil {
		return nil, err
	}

	res.Notes = []string{
		"Random and burst loss on one link cost delivery roughly in proportion to the",
		"loss the link's models inject; the ARQ on reliable paths is not exercised by",
		"these unicast datagrams, so the PDR drop is the raw multi-hop exposure.",
		"The asymmetric link is the worst case: the far side keeps hearing HELLOs it",
		"cannot answer, so everything upstream of the dead direction blackholes until",
		"poisoning withdraws it. Flaps and crashes cost little once triggered",
		"withdrawals prune the dead branch between windows; corruption behaves like",
		"light random loss because the virtual PHY CRC catches nearly every hit.",
		"The crash row shows zero fault drops because a crashed radio is deaf at the",
		"medium — frames aimed at it are never delivered, so they never reach the",
		"drop ledger; the loss appears purely as the PDR dip while the node is down.",
	}
	return res, nil
}
