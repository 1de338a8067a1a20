package experiments

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/netsim"
)

// X1Energy is an extension experiment beyond the demo paper: the battery
// cost of meshing. A LoRaMesher router must keep its receiver on to
// forward for others, so the listen current — not transmit airtime —
// dominates consumption; the experiment quantifies that and the marginal
// cost of relaying.
func X1Energy(opt Options) (*Result, error) {
	hours := 24
	n := 7
	topo, err := geo.Line(n, chainSpacing)
	if err != nil {
		return nil, err
	}
	sim, err := converged(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	// Endpoint-to-endpoint telemetry: every interior node relays.
	stats, err := sim.StartFlow(netsim.Flow{
		From: 0, To: n - 1, Payload: 24, Interval: 5 * time.Minute, Poisson: true,
	})
	if err != nil {
		return nil, err
	}
	sim.Run(time.Duration(hours) * time.Hour)

	profile := energy.DefaultProfile()
	const capacity = 3000 // mAh, a typical 18650 cell
	report, err := sim.EnergyReport(profile, capacity)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title:  fmt.Sprintf("extension: energy audit, %d-node chain, %d h of end-to-end telemetry", n, hours),
		Header: []string{"node", "role", "fwd frames", "tx airtime", "mean mA", "life @3000mAh"},
	}
	for i, ne := range report {
		h := sim.Handle(i)
		role := "endpoint"
		if i > 0 && i < n-1 {
			role = "router"
		}
		tx, err := sim.Medium.StationAirtime(h.Station)
		if err != nil {
			return nil, err
		}
		res.AddRow(h.Addr.String(), role,
			fmt.Sprintf("%d", h.Proto.Metrics().Counter("fwd.frames").Value()),
			fmtDur(tx), fmtF(ne.MeanCurrentMA, 2),
			fmtDur(ne.BatteryLife))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("PDR %s; the listen floor (%.0f mA) dominates — relaying adds only the marginal transmit charge, so router and endpoint battery life differ by hours, not days; duty-cycled sleep, not routing load, is the lever for longer life",
			fmtPct(stats.DeliveryRatio()), profile.RxMA))
	return res, nil
}
