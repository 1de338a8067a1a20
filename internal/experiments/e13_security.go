package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/meshsec"
	"repro/internal/netsim"
)

// e13Key is the fixed network key E13 uses when Options.SecKey is nil, so
// the published tables reproduce without any flag.
var e13Key = meshsec.Key{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

// E13Security measures what link-layer security costs: the same
// multi-hop datagram workload runs over each chain length twice — once
// plaintext, once with authenticated encryption on every frame — and the
// table puts delivery, latency, airtime, and the security header+MIC's
// share of transmitted bytes side by side. The expected shape is
// delivery parity (the 9-byte overhead rarely pushes a frame over an
// airtime threshold) with a single-digit byte-overhead percentage that
// shrinks as payloads grow.
func E13Security(opt Options) (*Result, error) {
	hops := []int{1, 3, 5}
	count := 30
	interval := time.Minute
	key := opt.SecKey
	if key == nil {
		k := e13Key
		key = &k
	}

	res := &Result{
		Title: fmt.Sprintf("link-layer security overhead (%d datagrams per cell, 24 B payload)",
			count),
		Header: []string{"hops", "security", "PDR", "mean lat", "airtime", "sec bytes"},
	}

	type cell struct {
		hops    int
		secured bool
	}
	var cells []cell
	for _, h := range hops {
		cells = append(cells, cell{h, false}, cell{h, true})
	}

	if err := res.sweep(len(cells), func(i int) ([]string, error) {
		c := cells[i]
		n := c.hops + 1
		topo, err := geo.Line(n, chainSpacing)
		if err != nil {
			return nil, err
		}
		var sk *meshsec.Key
		mode := "off"
		if c.secured {
			sk = key
			mode = "on"
		}
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed, SecKey: sk})
		if err != nil {
			return nil, err
		}
		if _, ok := sim.TimeToConvergence(30*time.Second, 2*time.Hour); !ok {
			return nil, fmt.Errorf("E13 %d hops (sec %s): mesh never converged", c.hops, mode)
		}
		stats, err := sim.StartFlow(netsim.Flow{
			From: 0, To: n - 1, Payload: 24, Interval: interval, Count: count, Poisson: true,
		})
		if err != nil {
			return nil, err
		}
		sim.Run(time.Duration(count)*interval + 10*time.Minute)
		if err := sim.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("E13 %d hops (sec %s): invariants: %w", c.hops, mode, err)
		}

		snap := sim.AggregateMetrics().Snapshot()
		// A benign secured run that rejects its own traffic is a protocol
		// bug, not a data point.
		if hostile := snap["total.sec.drop.auth"] + snap["total.sec.drop.replay"]; hostile != 0 {
			return nil, fmt.Errorf("E13 %d hops (sec %s): %v frames dropped as hostile with no attacker",
				c.hops, mode, hostile)
		}
		secShare := "—"
		if c.secured && snap["total.tx.bytes"] > 0 {
			secShare = fmtPct(snap["total.sec.overhead.bytes"] / snap["total.tx.bytes"])
		}
		return []string{fmt.Sprintf("%d", c.hops), mode,
			fmtPct(stats.DeliveryRatio()),
			fmtDur(stats.MeanLatency()),
			fmtDur(sim.TotalAirtime()),
			secShare,
		}, nil
	}); err != nil {
		return nil, err
	}

	res.Notes = []string{
		"Authenticated encryption is delivery-neutral at every chain length: the",
		"security header+MIC neither changes routing behavior nor pushes these",
		"frames across a collision-odds threshold, so the secured PDR tracks",
		"plaintext within noise. End-to-end latency grows ~15 ms per hop — the",
		"airtime of the 9 extra on-air bytes at this spreading factor; the CMAC",
		"itself costs microseconds and is invisible. The sec-bytes column is the",
		"real price: on a mesh of small frames (HELLOs, 24 B datagrams) the fixed",
		"per-frame overhead is a dominant fraction of transmitted bytes, and it",
		"amortizes only as payloads grow.",
	}
	return res, nil
}
