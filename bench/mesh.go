package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/routing"
)

// mesh_secure: the paper's library itself. A square grid of per-node
// engines, every protocol feature on, all traffic converging on one sink.
const (
	// meshPerSecond is the virtual time simulated per --seconds (80 h at
	// the contract's 10 s).
	meshPerSecond = 8 * time.Hour
	meshSpacing   = 6000.0 // metres between grid neighbours
	meshHello     = 5 * time.Minute
	meshInterval  = 5 * time.Minute  // mean gap between a node's readings (Poisson)
	meshStreamGap = 30 * time.Minute // one 2 KiB reliable transfer this often
	meshStreamLen = 2048
	// meshSlices is how many equal slices of virtual time Run is timed in
	// (about 50 ms of host time each at the contract's 10 s).
	meshSlices = 200
)

// meshKey is the fixed network key: the key is configuration, not input.
var meshKey = meshsec.Key{0x4c, 0x6f, 0x52, 0x61, 0x4d, 0x65, 0x73, 0x68, 0x65, 0x72, 0x2d, 0x62, 0x65, 0x6e, 0x63, 0x68}

// meshRun is one netsim simulation as seen from outside.
type meshRun struct {
	newS           float64
	wall           time.Duration
	frames, events float64
	framesPerS     float64 // quietRate over the run's slices
	traffic        *netsim.TrafficStats
	lat            []float64 // seconds, ascending
	airtimeS       float64
	snap           map[string]float64 // AggregateMetrics().Snapshot()
	delivered      float64            // medium-level receptions delivered
	collisions     float64
	receptions     float64
	allocB, allocN float64
	liveMiB        float64
	helloEntries   int
	streamsStarted int
	invErr, loopEr error
}

// meshConfig is the simulation every mesh_secure run builds.
func meshConfig(o options, observers bool) (netsim.Config, error) {
	topo, err := geo.Grid(o.sz.meshSide, o.sz.meshSide, meshSpacing)
	if err != nil {
		return netsim.Config{}, err
	}
	key := meshKey
	cfg := netsim.Config{
		Topology: topo,
		Seed:     o.seed,
		SecKey:   &key,
		Node: core.Config{
			HelloPeriod: meshHello,
			Routing:     routing.Config{EntryTTL: 5 * meshHello},
		},
	}
	if observers {
		cfg.TraceCapacity, cfg.SpanCapacity = 4096, 4096
	}
	return cfg, nil
}

// meshBuild constructs the simulation and starts its traffic: one Poisson
// flow from every node to the sink at the grid centre, each origin with
// its own payload size of 16..32 bytes drawn from the seed (mean 24), and
// a 2 KiB reliable transfer from the far corner every meshStreamGap.
func meshBuild(o options, observers bool, streams *int) (*netsim.Sim, []*netsim.TrafficStats, error) {
	cfg, err := meshConfig(o, observers)
	if err != nil {
		return nil, nil, err
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	side := o.sz.meshSide
	sinkIdx := (side/2)*side + side/2
	rng := rand.New(rand.NewSource(o.seed))
	var flows []*netsim.TrafficStats
	for i := 0; i < sim.N(); i++ {
		if i == sinkIdx {
			continue
		}
		st, err := sim.StartFlow(netsim.Flow{
			From: i, To: sinkIdx, Payload: 16 + rng.Intn(17), Interval: meshInterval, Poisson: true,
		})
		if err != nil {
			return nil, nil, err
		}
		flows = append(flows, st)
	}
	src, dst := sim.Handle(0), sim.Handle(sinkIdx).Addr
	var tick func()
	tick = func() {
		// A refused transfer (no route yet, too many open) is the
		// library's answer, counted by its own stream.* instruments.
		if _, err := src.Mesher.SendReliable(dst, make([]byte, meshStreamLen)); err == nil {
			*streams++
		}
		sim.Sched.MustAfter(meshStreamGap, tick)
	}
	sim.Sched.MustAfter(meshStreamGap, tick)
	return sim, flows, nil
}

// meshOnce builds and runs one simulation for d of virtual time.
func meshOnce(o options, d time.Duration, observers bool, rec *recorder, label string) (meshRun, error) {
	var r meshRun
	root := rec.begin(label, -1)
	defer func() { rec.end(root, 1) }()

	sp := rec.begin("netsim.New", root)
	t0 := time.Now()
	sim, flows, err := meshBuild(o, observers, &r.streamsStarted)
	r.newS = time.Since(t0).Seconds()
	rec.end(sp, 1)
	if err != nil {
		return r, err
	}

	runtime.GC()
	meter := startAllocMeter()
	sp = rec.begin("netsim.Run", root)
	rates := make([]float64, meshSlices)
	var sent uint64
	for i := range rates {
		t0 = time.Now()
		sim.Run(d / meshSlices)
		took := time.Since(t0)
		now := sim.Medium.Stats().FramesSent
		rates[i] = ratio(float64(now-sent), took.Seconds())
		sent = now
		r.wall += took
	}
	r.framesPerS = quietRate(rates)
	rec.end(sp, 1)
	r.allocB, r.allocN = meter.stop()
	r.liveMiB = liveHeapMiB()

	sp = rec.begin("netsim.readout", root)
	ms := sim.Medium.Stats()
	r.frames, r.events = float64(ms.FramesSent), float64(sim.EventsFired())
	r.delivered, r.collisions = float64(ms.FramesDelivered), float64(ms.LostCollision)
	r.receptions = float64(ms.FramesDelivered + ms.LostBelowSensitivity + ms.LostCollision +
		ms.LostHalfDuplex + ms.LostRandom + ms.LostNotListening)
	r.traffic = netsim.MergeStats(flows)
	r.airtimeS = sim.TotalAirtime().Seconds()
	r.snap = sim.AggregateMetrics().Snapshot()
	r.invErr, r.loopEr = sim.CheckInvariants(), sim.CheckRoutingLoops()
	// A node advertises itself plus its table, paged into as many sealed
	// HELLO frames as that takes: the mean rows per frame shapes the
	// codec and routing replays.
	perFrame := (packet.MaxPayload(packet.TypeHello) - packet.SecOverhead) / packet.HelloEntryLen
	rows, helloFrames := 0, 0
	for i := 0; i < sim.N(); i++ {
		n := 1 + len(sim.Handle(i).Mesher.Table().HelloEntries())
		rows += n
		helloFrames += (n + perFrame - 1) / perFrame
	}
	r.helloEntries = rows / helloFrames
	rec.end(sp, 1)
	runtime.KeepAlive(sim)

	r.lat = make([]float64, len(r.traffic.Latencies))
	for i, l := range r.traffic.Latencies {
		r.lat[i] = l.Seconds()
	}
	sort.Float64s(r.lat)
	return r, nil
}

func runMesh(o options) (*report, error) {
	rep := newReport(wMeshSecure)
	d := time.Duration(o.seconds * float64(meshPerSecond))

	setups := make([]float64, 8*o.sz.setups) // a construction takes milliseconds
	for i := range setups {
		var n int
		t0 := time.Now()
		if _, _, err := meshBuild(o, false, &n); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	setupS := median(setups)

	plain, err := meshOnce(o, d, false, nil, "")
	if err != nil {
		return nil, err
	}
	tr := plain.traffic
	rep.fact("virtual=%v nodes=%d frames=%.0f events=%.0f offered=%d delivered=%d streams=%d wall=%.3fs",
		d, o.sz.meshSide*o.sz.meshSide, plain.frames, plain.events, tr.Offered, tr.Delivered, plain.streamsStarted, plain.wall.Seconds())
	checkMesh(rep, "untraced", plain)
	rep.e2e["setup_s"] = setupS
	rep.e2e["throughput_per_s"] = plain.framesPerS
	rep.e2e["live_heap_mb"] = plain.liveMiB
	rep.e2e["pdr"] = tr.DeliveryRatio()
	rep.e2e["delivery_p75_s"] = quantile(plain.lat, 0.75)
	rep.e2e["airtime_s_per_delivery"] = ratio(plain.airtimeS, float64(tr.Delivered))
	if !o.trace {
		return rep, nil
	}

	rec := newRecorder(wMeshSecure)
	traced, err := meshOnce(o, d, false, rec, "run")
	if err != nil {
		return nil, err
	}
	checkMesh(rep, "traced", traced)
	rep.check(traced.frames == plain.frames && traced.traffic.Delivered == tr.Delivered,
		"traced run diverged: %.0f frames %d delivered, untraced %.0f %d",
		traced.frames, traced.traffic.Delivered, plain.frames, tr.Delivered)

	// Observer overhead: a shortened run with the program's own tracer and
	// span recorder armed against the same run without. They must not
	// change what the mesh does.
	off, err := meshOnce(o, d/6, false, rec, "short observers=off")
	if err != nil {
		return nil, err
	}
	on, err := meshOnce(o, d/6, true, rec, "short observers=on")
	if err != nil {
		return nil, err
	}
	rep.check(on.frames == off.frames, "observers changed the run: %.0f frames on, %.0f off", on.frames, off.frames)

	rep.layer = newLayerMap()
	l, s := rep.layer, traced.snap
	wallNs := float64(traced.wall.Nanoseconds())
	l["netsim.new_s"] = setupS
	l["netsim.run_ns_per_frame"] = ratio(wallNs, traced.frames)
	l["netsim.events_per_frame"] = ratio(traced.events, traced.frames)
	l["netsim.rx_per_tx"] = ratio(s["total.rx.frames"], s["total.tx.frames"])
	l["netsim.alloc_bytes_per_frame"] = ratio(traced.allocB, traced.frames)
	l["netsim.allocs_per_frame"] = ratio(traced.allocN, traced.frames)
	l["netsim.observer_overhead_ratio"] = ratio(on.wall.Seconds(), off.wall.Seconds())
	l["core.queue_drop_ratio"] = ratio(s["total.drop.queue_full"], s["total.tx.frames"]+s["total.drop.queue_full"])
	l["core.hello_share_of_frames"] = ratio(s["total.hello.sent"], s["total.tx.frames"])
	l["core.streams_completed"] = s["total.stream.completed"]
	l["core.streams_failed"] = s["total.stream.failed"]
	l["meshsec.reject_ratio"] = ratio(s["total.sec.drop.auth"]+s["total.sec.drop.replay"], s["total.sec.rx.opened"])
	l["meshsec.overhead_byte_share"] = ratio(s["total.sec.overhead.bytes"], s["total.tx.bytes"])
	l["airmedium.delivery_ratio"] = ratio(traced.delivered, traced.receptions)
	l["airmedium.collision_ratio"] = ratio(traced.collisions, traced.receptions)
	l["dutycycle.deferrals"] = s["total.dutycycle.deferrals"]
	l["routing.updates_per_hello"] = ratio(s["total.routes.updated"], s["total.hello.received"])

	// The layers under the engine, replayed on frames shaped like the
	// run's, then weighed by the run's own operation counts.
	f := meshFrames{
		phy: loraphy.DefaultParams(), key: meshKey,
		dataPayload: 24, helloEntries: traced.helloEntries,
		helloShare: l["core.hello_share_of_frames"], side: o.sz.meshSide, spacing: meshSpacing,
	}
	b := o.sz.layerBudget
	replayLoraphy(l, b, f.phy, loraphy.DefaultLogDistance(), securedData(7, 1, f.dataPayload).WireLen())
	replaySimtime(l, b, 2*o.sz.meshSide*o.sz.meshSide) // a HELLO and a traffic timer per node
	replayPacket(l, b, f)
	replayMeshsec(l, b, f)
	replayRouting(l, b, f)
	if err := replayAirmedium(l, b, f); err != nil {
		return nil, err
	}
	if err := replayDutycycle(l, b, f); err != nil {
		return nil, err
	}
	l["simtime.est_share"] = ratio(l["simtime.schedule_fire_ns"]*traced.events, wallNs)
	tx, rx := s["total.tx.frames"], s["total.rx.frames"]
	hrx, htx := s["total.hello.received"], s["total.hello.sent"]
	explained := l["airmedium.transmit_ns_per_frame"]*traced.frames +
		rx*(l["packet.unmarshal_ns"]+l["meshsec.open_ns"]) +
		tx*(l["packet.marshal_ns"]+l["meshsec.seal_ns"]+l["dutycycle.can_transmit_ns"]+l["dutycycle.record_ns"]+l["loraphy.airtime_ns"]) +
		hrx*(l["packet.hello_unmarshal_ns"]+l["routing.apply_hello_ns"]) +
		htx*l["packet.hello_marshal_ns"] +
		traced.events*l["simtime.schedule_fire_ns"]
	// What replay from outside cannot explain — the engine's own
	// dispatch, queues, metrics, allocation and GC — is what in-program
	// tracing has to.
	l["netsim.unattributed_share"] = 1 - ratio(explained, wallNs)

	l["bench.delivery_p50_s"] = quantile(traced.lat, 0.5)
	l["bench.delivery_p99_s"] = quantile(traced.lat, 0.99)
	l["bench.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), plain.wall.Seconds())
	if err := rec.write(o.outDir); err != nil {
		return nil, fmt.Errorf("%s: %w", wMeshSecure, err)
	}
	return rep, nil
}

// checkMesh applies the per-run correctness checks.
func checkMesh(rep *report, which string, r meshRun) {
	rep.check(r.invErr == nil, "%s run: CheckInvariants: %v", which, r.invErr)
	rep.check(r.loopEr == nil, "%s run: CheckRoutingLoops: %v", which, r.loopEr)
	rejected := r.snap["total.sec.drop.auth"] + r.snap["total.sec.drop.replay"]
	rep.check(rejected == 0 && r.snap["total.sec.rx.opened"] > 0,
		"%s run: %v secured frames rejected of %v opened", which, rejected, r.snap["total.sec.rx.opened"])
	rep.check(r.traffic.Delivered > 0 && r.snap["total.stream.completed"] > 0,
		"%s run: %d readings delivered, %v streams completed", which, r.traffic.Delivered, r.snap["total.stream.completed"])
}
