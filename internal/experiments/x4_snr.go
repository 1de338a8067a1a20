package experiments

import (
	"fmt"
	"time"

	"repro/internal/airmedium"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// X4SNRRouting is an extension experiment: link-quality-aware route
// selection. Under shadowing, two equal-hop-count paths can differ by
// tens of dB; the obvious refinement is to break metric ties toward the
// stronger first link. The measured result is a *negative* finding: the
// first-link-greedy tiebreak consistently hurts end-to-end delivery,
// because strong first links belong to nearby neighbors whose onward
// links span more distance and are therefore weaker — a quality metric
// must be end-to-end (ETX-style), which the prototype's 4-byte HELLO row
// (addr, metric, role) cannot carry.
func X4SNRRouting(opt Options) (*Result, error) {
	dur := 3 * time.Hour
	seeds := []int64{opt.Seed, opt.Seed + 1, opt.Seed + 2}
	n := 14
	res := &Result{
		Title:  fmt.Sprintf("extension: hop-count vs SNR-tiebreak routing, %d nodes, 8 dB shadowing", n),
		Header: []string{"metric", "seed", "PDR", "mean latency", "marginal-link drops"},
	}
	type cell struct {
		seed int64
		snr  bool
	}
	var cells []cell
	for _, seed := range seeds {
		for _, snr := range []bool{false, true} {
			cells = append(cells, cell{seed, snr})
		}
	}
	if err := res.sweep(len(cells), func(p int) ([]string, error) {
		seed, snr := cells[p].seed, cells[p].snr
		// Dense enough that equal-hop alternatives exist; shadowing
		// makes their quality diverge.
		side := 12000.0 * 1.9
		topo, err := geo.ConnectedRandomGeometric(n, side, side, 9000, seed, 2000)
		if err != nil {
			return nil, err
		}
		cfg := expNode()
		cfg.Routing.SNRTiebreak = snr
		sim, err := netsim.New(netsim.Config{
			Topology: topo,
			Node:     cfg,
			Seed:     seed,
			// Shadowing spreads link qualities; soft decoding makes
			// marginal links lossy instead of binary, which is what
			// a quality metric can route around.
			Medium: airmedium.Config{ShadowSigmaDB: 8, SoftDecodingWidthDB: 3},
		})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(10*time.Second, 6*time.Hour); !ok {
			return []string{metricName(snr), fmt.Sprintf("%d", seed), "no convergence", "-", "-"}, nil
		}
		all, err := sim.StartPairs(3 * time.Minute)
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		total := netsim.MergeStats(all)
		ms := sim.Medium.Stats()
		return []string{metricName(snr), fmt.Sprintf("%d", seed),
			fmtPct(total.DeliveryRatio()), fmtDur(total.MeanLatency()),
			fmt.Sprintf("%d", ms.LostBelowSensitivity)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"NEGATIVE RESULT: the first-link-greedy SNR tiebreak consistently lowers PDR — it pulls routes toward strong nearby neighbors whose onward links are weaker. Link-quality routing needs an end-to-end metric (ETX-style) carried in the advertisement, which the prototype's 4-byte HELLO row cannot express; hop count with implicit survivor bias (weak neighbors' HELLOs rarely arrive) is the better default")
	return res, nil
}

func metricName(snr bool) string {
	if snr {
		return "hop+SNR"
	}
	return "hop-only"
}
