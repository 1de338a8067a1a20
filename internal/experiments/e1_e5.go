package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/airmedium"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// chainSpacing keeps adjacent chain nodes in SF7 range (≈13 km) while the
// next-but-one node is out of range, forcing true multi-hop structure.
const chainSpacing = 8000.0

// expNode is the node template experiments share: a 2-minute HELLO period
// (the prototype's order of magnitude, shortened for simulation economy)
// and regulation on.
func expNode() core.Config {
	return core.Config{
		HelloPeriod: 2 * time.Minute,
		Routing:     routing.Config{EntryTTL: 10 * time.Minute},
	}
}

// E1MeshFormation reproduces the demo's headline scene: nodes powered on
// with empty tables form a mesh, and two end nodes communicate while the
// others route. The table tracks the network's knowledge over time.
func E1MeshFormation(opt Options) (*Result, error) {
	n := 5
	topo, err := geo.Line(n, chainSpacing)
	if err != nil {
		return nil, err
	}
	sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Title:  fmt.Sprintf("mesh formation, %d-node chain, %0.f km spacing", n, chainSpacing/1000),
		Header: []string{"t", "avg routes known", "converged"},
	}
	checkpoints := []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 4 * time.Minute,
		8 * time.Minute, 16 * time.Minute,
	}
	prev := time.Duration(0)
	for _, cp := range checkpoints {
		sim.Run(cp - prev)
		prev = cp
		total := 0
		for i := 0; i < sim.N(); i++ {
			total += sim.Handle(i).Mesher.Table().Len()
		}
		res.AddRow(fmtDur(cp), fmtF(float64(total)/float64(sim.N()), 1),
			fmt.Sprintf("%v", sim.Converged()))
	}
	// The demo's payoff: end-to-end data through the routers.
	if err := sim.Handle(0).Proto.Send(sim.Handle(n-1).Addr, []byte("demo")); err != nil {
		return nil, err
	}
	sim.Run(time.Minute)
	delivered := len(sim.Handle(n - 1).Msgs)
	forwards := uint64(0)
	for i := 1; i < n-1; i++ {
		forwards += sim.Handle(i).Proto.Metrics().Counter("fwd.frames").Value()
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("end-to-end datagram delivered=%d via %d router forwards (paper: two nodes communicate while the others operate as routers)", delivered, forwards))
	return res, nil
}

// E2PacketFormats regenerates the library's packet-format table: per-type
// header overhead, maximum payload, and SF7 airtime — the structural cost
// of the protocol.
func E2PacketFormats(Options) (*Result, error) {
	res := &Result{
		Title:  "LoRaMesher wire formats (SF7/BW125/CR4_5 airtimes)",
		Header: []string{"type", "header B", "max payload B", "airtime empty", "airtime full"},
	}
	phy := loraphy.DefaultParams()
	types := []packet.Type{
		packet.TypeHello, packet.TypeData, packet.TypeDataAck,
		packet.TypeSync, packet.TypeXLData, packet.TypeAck, packet.TypeLost,
	}
	for _, typ := range types {
		hdr := packet.HeaderLen(typ)
		maxP := packet.MaxPayload(typ)
		empty, err := phy.Airtime(hdr)
		if err != nil {
			return nil, err
		}
		full, err := phy.Airtime(hdr + maxP)
		if err != nil {
			return nil, err
		}
		res.AddRow(typ.String(), fmt.Sprintf("%d", hdr), fmt.Sprintf("%d", maxP),
			fmtDur(empty), fmtDur(full))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("HELLO carries %d routing entries per frame at 4 B each", packet.MaxHelloEntries))
	return res, nil
}

// E3Convergence measures time until every routing table is complete, as a
// function of network size, on chains and connected random fields.
func E3Convergence(opt Options) (*Result, error) {
	sizes := []int{2, 4, 8, 12, 16, 24}
	res := &Result{
		Title:  "time to full routing convergence (HELLO period 2 min)",
		Header: []string{"nodes", "chain", "chain diam", "random", "random diam"},
	}
	if err := res.sweep(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		chain, err := geo.Line(n, chainSpacing)
		if err != nil {
			return nil, err
		}
		chainT, chainOK, err := convergenceTime(chain, opt.Seed)
		if err != nil {
			return nil, err
		}
		side := 12000.0 * math.Sqrt(float64(n)/4) // area grows with n: constant density
		random, err := geo.ConnectedRandomGeometric(n, side, side, 12000, opt.Seed, 1000)
		if err != nil {
			return nil, err
		}
		randT, randOK, err := convergenceTime(random, opt.Seed)
		if err != nil {
			return nil, err
		}
		cd := geo.Diameter(chain, 13000)
		rd := geo.Diameter(random, 13000)
		return []string{fmt.Sprintf("%d", n),
			okDur(chainT, chainOK), fmt.Sprintf("%d", cd),
			okDur(randT, randOK), fmt.Sprintf("%d", rd)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"convergence grows with network diameter: each extra hop costs about one HELLO period",
	)
	return res, nil
}

func okDur(d time.Duration, ok bool) string {
	if !ok {
		return ">max"
	}
	return fmtDur(d)
}

func convergenceTime(topo *geo.Topology, seed int64) (time.Duration, bool, error) {
	sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: seed})
	if err != nil {
		return 0, false, err
	}
	d, ok := sim.TimeToConvergence(10*time.Second, 4*time.Hour)
	return d, ok, nil
}

// E4ControlOverhead measures the airtime the routing protocol itself
// consumes: HELLO beacons per node per hour across network sizes, against
// the EU868 1% budget.
func E4ControlOverhead(opt Options) (*Result, error) {
	sizes := []int{4, 8, 16}
	dur := 2 * time.Hour
	res := &Result{
		Title:  "routing control overhead (idle mesh, HELLO period 2 min)",
		Header: []string{"nodes", "hello frames/node/h", "hello airtime/node/h", "% of 1% budget", "hello bytes/frame"},
	}
	if err := res.sweep(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		side := 12000.0 * math.Sqrt(float64(n)/4)
		topo, err := geo.ConnectedRandomGeometric(n, side, side, 12000, opt.Seed, 1000)
		if err != nil {
			return nil, err
		}
		sim, err := netsim.New(netsim.Config{Topology: topo, Node: expNode(), Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		sim.Run(dur)
		snap := sim.AggregateMetrics().Snapshot()
		hours := dur.Hours()
		helloFrames := snap["total.hello.sent"] / float64(n) / hours
		airPerNodeH := sim.TotalAirtime() / time.Duration(n) / time.Duration(hours)
		budget := 36 * time.Second
		txBytes := snap["total.tx.bytes"]
		txFrames := snap["total.tx.frames"]
		avgFrame := 0.0
		if txFrames > 0 {
			avgFrame = txBytes / txFrames
		}
		return []string{fmt.Sprintf("%d", n),
			fmtF(helloFrames, 1), fmtDur(airPerNodeH),
			fmtPct(float64(airPerNodeH) / float64(budget)),
			fmtF(avgFrame, 1)}, nil
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"HELLO frames grow with table size (larger meshes advertise more rows), but stay well inside the duty budget at the 2-min period")
	return res, nil
}

// E5Delivery measures the packet delivery ratio across hop counts, with
// and without the reliable transport, under injected per-link loss.
func E5Delivery(opt Options) (*Result, error) {
	hops := []int{1, 2, 3, 5, 7}
	losses := []float64{0, 0.10, 0.20}
	count := 40
	res := &Result{
		Title:  "delivery ratio vs hops (40 datagrams / 15 reliable msgs per cell)",
		Header: []string{"hops", "link loss", "datagram PDR", "reliable PDR", "reliable retrans"},
	}
	type cell struct {
		hops int
		loss float64
	}
	var cells []cell
	for _, h := range hops {
		for _, loss := range losses {
			cells = append(cells, cell{h, loss})
		}
	}
	if err := res.sweep(len(cells), func(i int) ([]string, error) {
		return deliveryCell(opt.Seed, cells[i].hops, cells[i].loss, count)
	}); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes,
		"datagram PDR decays roughly as (1-loss)^hops; the reliable transport holds ≈100% through moderate hop-loss products by paying retransmissions, and degrades only where the end-to-end round trip itself is unlikely (7 hops at 20% per-link loss)",
	)
	return res, nil
}

func deliveryCell(seed int64, hops int, loss float64, count int) ([]string, error) {
	topo, err := geo.Line(hops+1, chainSpacing)
	if err != nil {
		return nil, err
	}
	cfg := expNode()
	cfg.StreamRetry = 15 * time.Second
	cfg.StreamMaxRetries = 8
	sim, err := converged(netsim.Config{
		Topology: topo,
		Node:     cfg,
		Seed:     seed,
		Medium:   airmedium.Config{ExtraFrameLossRate: loss},
	})
	if err != nil {
		return nil, err
	}
	// Unreliable datagrams.
	stats, err := sim.StartFlow(netsim.Flow{
		From: 0, To: hops, Payload: 24, Interval: 20 * time.Second, Count: count,
	})
	if err != nil {
		return nil, err
	}
	sim.Run(time.Duration(count+8) * 20 * time.Second)

	// Reliable messages (single-frame payloads via DATA_ACK).
	relCount := count / 2
	if relCount < 5 {
		relCount = 5
	}
	okRel, retrans := 0, 0
	for i := 0; i < relCount; i++ {
		src := sim.Handle(0)
		before := len(src.StreamEvents)
		if _, err := src.Mesher.SendReliable(sim.Handle(hops).Addr, make([]byte, 24)); err != nil {
			continue
		}
		for tries := 0; len(src.StreamEvents) == before && tries < 360; tries++ {
			sim.Run(5 * time.Second)
		}
		if len(src.StreamEvents) > before {
			ev := src.StreamEvents[len(src.StreamEvents)-1]
			if ev.Err == nil {
				okRel++
			}
			retrans += ev.Retransmissions
		}
	}
	return []string{
		fmt.Sprintf("%d", hops), fmtPct(loss),
		fmtPct(stats.DeliveryRatio()),
		fmtPct(float64(okRel) / float64(relCount)),
		fmt.Sprintf("%d", retrans),
	}, nil
}
