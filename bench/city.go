package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/citysim"
	"repro/internal/loraphy"
)

const (
	// cityPerSecond is the virtual time simulated per --seconds: ten
	// virtual minutes at the contract's 10 s, about five seconds of host
	// time on the 2-core reference box.
	cityPerSecond = time.Minute
	// cityRepeats is how many times the measured simulation runs. A
	// citysim.Sim runs once and reports when it ends, so a run cannot be
	// timed in slices; identical repeats are its measured pieces.
	cityRepeats = 3
)

// cityRun is one citysim simulation as seen from outside: New, Run and the
// read-out, each timed.
type cityRun struct {
	newS, readoutS float64
	wall           time.Duration
	st             citysim.Stats
	digest         uint64
	lat            []float64 // origin-to-sink latencies in seconds, ascending
	allocB, allocN float64   // bytes and objects allocated inside Run
	liveMiB        float64   // heap reachable after Run, simulation still referenced
}

// cityOnce builds and runs one simulation for d of virtual time. Spans go
// to rec (nil in the untraced run) under a parent span named label.
func cityOnce(cfg citysim.Config, d time.Duration, rec *recorder, label string) (cityRun, error) {
	var r cityRun
	root := rec.begin(label, -1)
	defer func() { rec.end(root, 1) }()

	sp := rec.begin("citysim.New", root)
	t0 := time.Now()
	sim, err := citysim.New(cfg)
	r.newS = time.Since(t0).Seconds()
	rec.end(sp, 1)
	if err != nil {
		return r, err
	}

	runtime.GC() // the run starts from a collected heap on every commit
	meter := startAllocMeter()
	sp = rec.begin("citysim.Run", root)
	t0 = time.Now()
	err = sim.Run(d)
	r.wall = time.Since(t0)
	rec.end(sp, 1)
	if err != nil {
		return r, err
	}
	r.allocB, r.allocN = meter.stop()
	r.liveMiB = liveHeapMiB()

	sp = rec.begin("citysim.readout", root)
	t0 = time.Now()
	r.st = sim.Stats()
	dels := sim.Deliveries()
	r.digest = sim.Digest()
	r.readoutS = time.Since(t0).Seconds()
	rec.end(sp, len(dels))
	runtime.KeepAlive(sim)

	r.lat = make([]float64, len(dels))
	for i, dl := range dels {
		// Deliveries are sorted by arrival, not by latency.
		r.lat[i] = (dl.At - dl.Born).Seconds()
	}
	sort.Float64s(r.lat)
	return r, nil
}

// runCity is city_telemetry (strategy "") and city_icn (strategy "icn").
func runCity(o options, name, strategy string) (*report, error) {
	rep := newReport(name)
	d := time.Duration(o.seconds * float64(cityPerSecond))
	cfg := citysim.Config{Nodes: o.sz.cityNodes, Shards: 2, Seed: o.seed, Strategy: strategy}

	// setup_s: the construction alone, several times, median.
	setups := make([]float64, o.sz.setups)
	for i := range setups {
		t0 := time.Now()
		if _, err := citysim.New(cfg); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	setupS := median(setups)

	// The untraced runs: they alone produce the end-to-end numbers. Every
	// repeat must reproduce the first to the last bit.
	var plain cityRun
	rates, walls := make([]float64, cityRepeats), make([]float64, cityRepeats)
	for i := range rates {
		r, err := cityOnce(cfg, d, nil, "")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			plain = r
		} else {
			rep.check(r.digest == plain.digest && r.st.FramesSent == plain.st.FramesSent,
				"repeat %d diverged: digest %016x frames %d, first run %016x %d",
				i, r.digest, r.st.FramesSent, plain.digest, plain.st.FramesSent)
		}
		rates[i], walls[i] = ratio(float64(r.st.FramesSent), r.wall.Seconds()), r.wall.Seconds()
	}
	st := plain.st
	rep.fact("virtual=%v nodes=%d shards=%d sinks=%d frames=%d events=%d offered=%d delivered=%d wall=%.3fs digest=%016x",
		d, st.Nodes, st.Shards, st.Sinks, st.FramesSent, st.EventsFired, st.Offered, st.Delivered, plain.wall.Seconds(), plain.digest)
	rep.check(st.FramesSent > 0 && st.Delivered > 0 && len(plain.lat) == int(st.Delivered),
		"run produced %d frames, %d deliveries, %d latency samples", st.FramesSent, st.Delivered, len(plain.lat))
	rep.e2e["setup_s"] = setupS
	rep.e2e["throughput_per_s"] = quietRate(rates)
	rep.e2e["live_heap_mb"] = plain.liveMiB
	rep.e2e["pdr"] = st.PDR()
	rep.e2e["delivery_p75_s"] = quantile(overAir(plain.lat), 0.75)
	rep.e2e["airtime_s_per_delivery"] = ratio(st.AirtimeTotal.Seconds(), float64(st.Delivered))

	var rec *recorder
	traced := plain
	if o.trace {
		rec = newRecorder(name)
		var err error
		if traced, err = cityOnce(cfg, d, rec, "run shards=2"); err != nil {
			return nil, err
		}
		rep.check(traced.digest == plain.digest && traced.st.FramesSent == st.FramesSent,
			"traced run diverged: digest %016x frames %d, untraced %016x %d",
			traced.digest, traced.st.FramesSent, plain.digest, st.FramesSent)
	}

	// Determinism across execution modes, every run, at a third of the
	// duration: the digest at one shard equals the digest at two (which
	// also gives shard_speedup), and the serial reference equals the
	// sharded executor at a size the serial O(n) scans can afford.
	third := d / 3
	var checks [4]cityRun
	for i, c := range []struct {
		label         string
		nodes, shards int
	}{
		{"third shards=1", cfg.Nodes, 1},
		{"third shards=2", cfg.Nodes, 2},
		{"check serial", o.sz.cityCheckNodes, 0},
		{"check sharded", o.sz.cityCheckNodes, 2},
	} {
		cc := cfg
		cc.Nodes, cc.Shards = c.nodes, c.shards
		var err error
		if checks[i], err = cityOnce(cc, third, rec, c.label); err != nil {
			return nil, err
		}
	}
	r1, r2, rs, rp := checks[0], checks[1], checks[2], checks[3]
	rep.check(r1.digest == r2.digest, "digest at 1 shard %016x != at 2 shards %016x (%v virtual)", r1.digest, r2.digest, third)
	rep.check(rs.digest == rp.digest, "serial digest %016x != sharded %016x at %d nodes", rs.digest, rp.digest, o.sz.cityCheckNodes)

	if !o.trace {
		return rep, nil
	}
	rep.layer = newLayerMap()
	l, ts := rep.layer, traced.st
	frames, events, wallNs := float64(ts.FramesSent), float64(ts.EventsFired), float64(traced.wall.Nanoseconds())
	l["citysim.new_s"] = setupS
	l["citysim.run_ns_per_frame"] = ratio(wallNs, frames)
	l["citysim.ns_per_event"] = ratio(wallNs, events)
	l["citysim.events_per_frame"] = ratio(events, frames)
	l["citysim.windows"] = float64(ts.Windows)
	l["citysim.fastforward_ratio"] = ratio(float64(ts.FastForwards), float64(ts.Windows))
	l["citysim.shard_speedup"] = ratio(r1.wall.Seconds(), r2.wall.Seconds())
	l["citysim.state_bytes_per_node"] = ratio(float64(ts.StateBytes), float64(ts.Nodes))
	l["citysim.alloc_bytes_per_frame"] = ratio(traced.allocB, frames)
	l["citysim.allocs_per_frame"] = ratio(traced.allocN, frames)
	l["citysim.readout_s"] = traced.readoutS
	inRange := float64(ts.FramesDelivered + ts.LostCollision + ts.LostHalfDuplex + ts.LostRandom)
	l["citysim.collision_ratio"] = ratio(float64(ts.LostCollision), inRange)
	l["citysim.queue_drop_ratio"] = ratio(float64(ts.DropQueue), float64(ts.Offered))
	// ICN only: of the interests a node handled, the share answered from
	// a content store, and the share folded into a pending one, instead
	// of being put on the air.
	l["citysim.cache_hit_ratio"] = ratio(float64(ts.CacheHits), float64(ts.CacheHits+ts.InterestsSent))
	l["citysim.interest_aggregation_ratio"] = ratio(float64(ts.InterestAggregated), float64(ts.InterestAggregated+ts.InterestsSent))

	// The layers under citysim, replayed through their public API on
	// inputs shaped like this run's: the default PHY, the urban exponent
	// citysim defaults to, 24-byte data frames, and a wheel holding about
	// one pending timer per node.
	model := loraphy.DefaultLogDistance()
	model.Exponent = 3.8
	replayLoraphy(l, o.sz.layerBudget, loraphy.DefaultParams(), model, 24)
	replaySimtime(l, o.sz.layerBudget, o.sz.cityNodes)
	// Each shard runs its own wheel, so the wheels had shards x wall.
	l["simtime.est_share"] = ratio(l["simtime.schedule_fire_ns"]*events, wallNs*float64(ts.Shards))

	l["bench.delivery_p50_s"] = quantile(overAir(traced.lat), 0.5)
	l["bench.delivery_p99_s"] = quantile(overAir(traced.lat), 0.99)
	l["bench.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), median(walls))
	if err := rec.write(o.outDir); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil
}
