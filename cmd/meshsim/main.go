// meshsim runs one mesh scenario and reports what happened: topology map,
// convergence, routing tables, traffic outcome, per-node statistics, and
// (optionally) the event trace.
//
// Usage examples:
//
//	meshsim                                   # 5-node chain, defaults
//	meshsim -topology random -n 12 -duration 2h -traffic sink
//	meshsim -topology grid -n 9 -strategy flooding -traffic pairs
//	meshsim -strategy icn -n 8 -topology grid     # pull workload, in-mesh caching
//	meshsim -strategy slotted                     # TDMA schedule + latency bound
//	meshsim -trace 50                         # show the last 50 events
//	meshsim -trace-out events.jsonl           # stream every event as JSONL
//	meshsim -trace-packet 9c4f...a1           # reconstruct one packet's journey
//	meshsim -faults plan.json -seed 7         # inject faults; same seed = same run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/citysim"
	"repro/internal/control"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/meshsec"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/span"
	"repro/internal/trace"
	"repro/loramesher"
)

// options collects everything a run needs; flags map onto it 1:1.
type options struct {
	topology string
	n        int
	// shards >= 0 routes the run to the city-scale sharded engine
	// (internal/citysim) instead of the per-node protocol stack: 0 is the
	// serial reference executor, k >= 1 runs k column-stripe shards. -1
	// keeps the default per-node engine.
	shards int
	// strategy selects the forwarding strategy by its forward.Kind name
	// (proactive, reactive, icn, slotted, flooding). ICN runs a pull
	// workload (interest rounds against a node-0 producer) instead of the
	// push -traffic patterns; slotted runs under the 3-slot superframe
	// with node 0 as sink.
	strategy string
	duration time.Duration
	traffic  string
	interval time.Duration
	hello    time.Duration
	seed     int64
	traceN   int
	shadow   float64
	// traceOut streams every trace event to this file as JSONL ("-" for
	// stdout); packetdump -events reads the format back.
	traceOut string
	// tracePacket, a 16-hex-digit trace ID, prints that packet's
	// reconstructed hop-by-hop journey after the run.
	tracePacket string
	// faultsFile loads a fault-injection plan (JSON) applied once the
	// mesh has converged. Runs are deterministic in (plan, -seed): rerun
	// with the same pair to replay a failure exactly.
	faultsFile string
	// seckey, 32 hex digits, turns on link-layer security: every frame
	// is encrypted and authenticated under this network key (proactive
	// strategy only).
	seckey string
	// spanCap arms hop-level span capture and adds this many slots to
	// the trace ring; with -trace-out the segments stream as KindSpan
	// JSONL events for packetdump -spans.
	spanCap int
	// health runs the always-on mesh health monitor at this virtual-time
	// poll interval, printing the verdict after the run.
	health time.Duration
	// controlFile loads a desired-state document (JSON) and attaches the
	// self-healing controller at node 0, reconciling the mesh toward it
	// and running the recovery playbooks off the health monitor's
	// violation feed. Implies -health (30s) when not set explicitly.
	controlFile string
}

func main() {
	var o options
	flag.StringVar(&o.topology, "topology", "line", "line | grid | star | random")
	flag.IntVar(&o.n, "n", 5, "number of nodes")
	flag.IntVar(&o.shards, "shards", -1, "run the city-scale sharded engine with -n nodes and this many shards (0 = serial reference executor; -1 = per-node engine)")
	flag.StringVar(&o.strategy, "strategy", "proactive", "forwarding strategy: proactive | reactive | icn | slotted | flooding")
	flag.DurationVar(&o.duration, "duration", time.Hour, "simulated duration after convergence")
	flag.StringVar(&o.traffic, "traffic", "pairs", "none | pairs | sink")
	flag.DurationVar(&o.interval, "interval", 5*time.Minute, "mean traffic interval per flow")
	flag.DurationVar(&o.hello, "hello", 2*time.Minute, "HELLO beacon period")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.traceN, "trace", 0, "print the last N trace events")
	flag.Float64Var(&o.shadow, "shadow", 0, "log-normal shadowing sigma in dB")
	flag.StringVar(&o.traceOut, "trace-out", "", "stream all trace events to this file as JSONL (\"-\" for stdout)")
	flag.StringVar(&o.tracePacket, "trace-packet", "", "print the hop-by-hop journey of the packet with this trace ID")
	flag.StringVar(&o.faultsFile, "faults", "", "apply a fault-injection plan from this JSON file (deterministic in -seed)")
	flag.StringVar(&o.seckey, "seckey", "", "network key as 32 hex digits; enables link-layer security (mesher only)")
	flag.IntVar(&o.spanCap, "spans", 0, "capture hop-level spans, adding this many slots to the trace ring (streamed to -trace-out as span events)")
	flag.DurationVar(&o.health, "health", 0, "poll the mesh health monitor at this interval (0 disables)")
	flag.StringVar(&o.controlFile, "control", "", "reconcile the mesh toward this desired-state JSON document (self-healing controller at node 0; implies -health 30s)")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "meshsim: %v\n", err)
		os.Exit(1)
	}
}

// spacing is the node spacing (star: radius) in meters: adjacent nodes in
// SF7 range, next-but-one out of it.
const spacing = 8000.0

func buildTopology(kind string, n int, seed int64) (*geo.Topology, error) {
	switch kind {
	case "line":
		return geo.Line(n, spacing)
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return geo.Grid(side, (n+side-1)/side, spacing)
	case "star":
		return geo.Star(n, spacing)
	case "random":
		field := spacing * float64(n) / 2
		return geo.ConnectedRandomGeometric(n, field, field, 13000, seed, 2000)
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

func run(w io.Writer, o options) error {
	strat, err := forward.ParseKind(o.strategy)
	if err != nil {
		return err
	}
	if o.shards >= 0 {
		return runCity(w, o)
	}
	topo, err := buildTopology(o.topology, o.n, o.seed)
	if err != nil {
		return err
	}
	var wantID trace.TraceID
	if o.tracePacket != "" {
		if wantID, err = trace.ParseTraceID(o.tracePacket); err != nil {
			return err
		}
	}
	cfg := netsim.Config{
		Topology: topo,
		Protocol: strat,
		Seed:     o.seed,
		Node:     loramesher.Config{HelloPeriod: o.hello},
		// Answers interests under -strategy icn; unused otherwise.
		ICNProduce: func(i int, name string) []byte {
			if i == 0 {
				return []byte("demo(" + name + ")")
			}
			return nil
		},
	}
	cfg.Medium.ShadowSigmaDB = o.shadow
	if o.seckey != "" {
		key, err := meshsec.ParseKey(o.seckey)
		if err != nil {
			return err
		}
		cfg.SecKey = &key
	}
	if o.traceN > 0 {
		cfg.TraceCapacity = o.traceN
	}
	cfg.SpanCapacity = o.spanCap
	cfg.HealthInterval = o.health
	var desired *control.State
	if o.controlFile != "" {
		if desired, err = control.LoadFile(o.controlFile); err != nil {
			return err
		}
		if cfg.HealthInterval <= 0 {
			// The playbooks are driven by the health monitor's violation
			// feed; a controller without one would only do config pushes.
			// The silent detector's window (3 polls) must exceed the HELLO
			// period, or a healthy-but-quiet node gets "recovered" with a
			// reboot every time a beacon misses the window.
			cfg.HealthInterval = 30 * time.Second
			if min := o.hello / 2; cfg.HealthInterval < min {
				cfg.HealthInterval = min
			}
		}
	}
	if cfg.TraceCapacity == 0 && (o.traceOut != "" || o.tracePacket != "") {
		// Tracing is implied; the sink sees everything regardless of the
		// ring size, and journeys need a reasonable window.
		cfg.TraceCapacity = 4096
	}
	sim, err := netsim.New(cfg)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		sinkW := w
		if o.traceOut != "-" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			sinkW = f
		}
		sim.Tracer.SetSink(sinkW)
	}

	fmt.Fprintf(w, "topology %s: %d nodes\n", topo.Name, topo.N())
	printMap(w, topo)
	fmt.Fprintln(w)

	if cfg.SecKey != nil {
		fmt.Fprintf(w, "link-layer security: on (frames encrypted and authenticated)\n\n")
	}
	fmt.Fprintf(w, "forwarding strategy: %s\n\n", strat)
	conv, ok := sim.TimeToConvergence(10*time.Second, 12*time.Hour)
	if !ok {
		return fmt.Errorf("mesh did not converge in 12 h — check density vs radio range")
	}
	if conv > 0 { // the table-free strategies, and a lone node, have nothing to converge
		fmt.Fprintf(w, "mesh converged in %v\n\n", conv.Round(time.Second))
	}

	var ctl *control.Controller
	if desired != nil {
		if ctl, err = sim.AttachController(control.Config{State: desired}); err != nil {
			return err
		}
		fmt.Fprintf(w, "self-healing controller attached at %v (state version %d, poll %v)\n\n",
			sim.Handle(0).Addr, desired.Version, ctl.PollInterval())
	}

	if o.faultsFile != "" {
		plan, err := faults.LoadFile(o.faultsFile)
		if err != nil {
			return err
		}
		if err := sim.ApplyFaultPlan(plan); err != nil {
			return err
		}
		fmt.Fprintf(w, "fault plan %q armed (seed %d; event times relative to now)\n\n",
			plan.Name, o.seed)
	}

	// MergeStats snapshots by value, so push-strategy flows are merged only
	// after the run; the ICN accounting object is mutated in place.
	var flows []*netsim.TrafficStats
	var icnStats *netsim.TrafficStats
	trafficLabel := o.traffic
	switch {
	case o.traffic == "none":
	case cfg.Protocol == forward.KindICN:
		// ICN routes by name, not address: the push patterns cannot drive
		// it, so every non-producer node pulls a per-round datum instead.
		if icnStats, err = sim.StartInterestRounds("demo/reading/", o.interval, o.duration); err != nil {
			return err
		}
		trafficLabel = "interest rounds"
	case o.traffic == "pairs":
		if flows, err = sim.StartPairs(o.interval); err != nil {
			return err
		}
	case o.traffic == "sink":
		if flows, err = sim.StartManyToOne(24, o.interval); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown traffic pattern %q", o.traffic)
	}

	sim.Run(o.duration)

	total := icnStats
	if total == nil && len(flows) > 0 {
		total = netsim.MergeStats(flows)
	}
	if total != nil {
		fmt.Fprintf(w, "traffic (%s, mean interval %v) over %v:\n", trafficLabel, o.interval, o.duration)
		fmt.Fprintf(w, "  offered %d  delivered %d  PDR %.1f%%  mean latency %v\n\n",
			total.Offered, total.Delivered, 100*total.DeliveryRatio(),
			total.MeanLatency().Round(time.Millisecond))
	}
	if cfg.Protocol == forward.KindICN {
		snap := sim.AggregateMetrics().Snapshot()
		fmt.Fprintf(w, "icn: interests expressed %.0f  aggregated %.0f  cache hits %.0f  misses %.0f  airtime saved %.0fms\n\n",
			snap["total.icn.interest.expressed"], snap["total.icn.interest.aggregated"],
			snap["total.icn.cs.hit"], snap["total.icn.cs.miss"], snap["total.icn.airtime.saved_ms"])
	}

	fmt.Fprintln(w, "per-node summary:")
	fmt.Fprintln(w, "  node   tx      rx      fwd     routes  airtime     mean mA  life@3000mAh")
	report, _ := sim.EnergyReport(energy.DefaultProfile(), 3000)
	for i := 0; i < sim.N(); i++ {
		h := sim.Handle(i)
		m := h.Proto.Metrics()
		routes := "-"
		if h.Mesher != nil {
			routes = fmt.Sprintf("%d", h.Mesher.Table().Len())
		}
		air, _ := sim.Medium.StationAirtime(h.Station)
		ma, life := "-", "-"
		if i < len(report) {
			ma = fmt.Sprintf("%.1f", report[i].MeanCurrentMA)
			life = fmt.Sprintf("%.1fd", report[i].BatteryLife.Hours()/24)
		}
		fmt.Fprintf(w, "  %v   %-6d  %-6d  %-6d  %-6s  %-10v  %-7s  %s\n", h.Addr,
			m.Counter("tx.frames").Value(), m.Counter("rx.frames").Value(),
			m.Counter("fwd.frames").Value(), routes, air.Round(time.Millisecond), ma, life)
	}

	ms := sim.Medium.Stats()
	fmt.Fprintf(w, "\nchannel: %d frames sent, %d receptions, %d lost to collisions, %d below sensitivity\n",
		ms.FramesSent, ms.FramesDelivered, ms.LostCollision, ms.LostBelowSensitivity)

	if o.faultsFile != "" {
		fs := sim.FaultStats()
		fmt.Fprintf(w, "fault layer: ")
		if len(fs) == 0 {
			fmt.Fprintln(w, "no frames affected")
		} else {
			parts := make([]string, 0, len(fs))
			for _, reason := range metrics.SortedKeys(fs) {
				parts = append(parts, fmt.Sprintf("%s=%d", reason, fs[reason]))
			}
			fmt.Fprintln(w, strings.Join(parts, "  "))
		}
	}

	if sim.Tracer.Segments() {
		recs := span.FromEvents(sim.Tracer.Events())
		fmt.Fprintf(w, "\nspan capture: %d segments retained (%d traces); render with packetdump -events <jsonl> -spans <id>\n",
			len(recs), len(span.TraceIDs(recs)))
	}
	if sim.Health != nil {
		v := sim.Health.Verdict()
		fmt.Fprintf(w, "\nmesh health: %v (%v polls, %v violations)\n", v["status"], v["polls"], v["violations"])
		for _, viol := range sim.Health.Violations() {
			fmt.Fprintf(w, "  %v\n", viol)
		}
	}
	if ctl != nil {
		snap := ctl.Metrics().Snapshot()
		state := "reconciling"
		if ctl.Converged() {
			state = "converged"
		}
		fmt.Fprintf(w, "\ncontroller: %s (version acked fleet-wide: %v)  commands sent %d  acks %d  escalations %d  key epoch %d\n",
			state, ctl.Converged(),
			int64(snap["ctl.commands.sent"]), int64(snap["ctl.acks.ok"]),
			int64(snap["ctl.escalations"]), ctl.KeyEpoch())
		if acts := ctl.Actions(); len(acts) > 0 {
			fmt.Fprintln(w, "controller journal:")
			for _, a := range acts {
				fmt.Fprintf(w, "  %s\n", a)
			}
		}
	}
	if o.traceN > 0 {
		// -spans adds its slots to the same ring, and its segments to it.
		fmt.Fprintf(w, "\nlast %d events:\n", o.traceN+o.spanCap)
		if _, err := sim.Tracer.WriteTo(w); err != nil {
			return err
		}
	}
	if o.tracePacket != "" {
		if err := printJourney(w, sim.Tracer, wantID); err != nil {
			return err
		}
	}
	if err := sim.Tracer.SinkErr(); err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}
	return nil
}

// printJourney renders every retained event carrying the trace ID — the
// packet's hop-by-hop reconstruction, drop reason included.
func printJourney(w io.Writer, t *trace.Tracer, id trace.TraceID) error {
	journey := trace.Filter(t.Events(), id)
	fmt.Fprintf(w, "\npacket %v journey (%d events):\n", id, len(journey))
	if len(journey) == 0 {
		fmt.Fprintln(w, "  no retained events carry this trace ID; raise -trace or use -trace-out and packetdump -events")
		return nil
	}
	for _, ev := range journey {
		fmt.Fprintf(w, "  %v\n", ev)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(w, "  (ring evicted %d earlier events; the journey may be truncated)\n", d)
	}
	return nil
}

// printMap renders node positions on a coarse ASCII grid.
func printMap(w io.Writer, topo *geo.Topology) {
	const cols, rows = 60, 16
	minX, minY := topo.Positions[0].X, topo.Positions[0].Y
	maxX, maxY := minX, minY
	for _, p := range topo.Positions {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	for i, p := range topo.Positions {
		x := int((p.X - minX) / spanX * float64(cols-1))
		y := int((p.Y - minY) / spanY * float64(rows-1))
		label := byte('0' + i%10)
		grid[y][x] = label
	}
	for _, row := range grid {
		fmt.Fprintf(w, "  %s\n", row)
	}
	fmt.Fprintf(w, "  (field %.1f x %.1f km)\n", spanX/1000, spanY/1000)
}

// runCity drives the city-scale sharded engine: same seed-deterministic
// contract as the per-node path, but a compact telemetry-profile workload
// that scales to 10k-100k nodes. The digest line is the determinism
// witness — identical across -shards settings for a given seed.
func runCity(w io.Writer, o options) error {
	sim, err := citysim.New(citysim.Config{
		Nodes:         o.n,
		Shards:        o.shards,
		Seed:          o.seed,
		Strategy:      o.strategy,
		HelloPeriod:   o.hello,
		ShadowSigmaDB: o.shadow,
	})
	if err != nil {
		return err
	}
	if err := sim.Run(o.duration); err != nil {
		return err
	}
	st := sim.Stats()
	executor := "serial reference"
	if o.shards > 0 {
		executor = fmt.Sprintf("%d shards", st.Shards)
	}
	fmt.Fprintf(w, "== city mesh: %d nodes, %s ==\n", st.Nodes, executor)
	fmt.Fprintf(w, "cells %d  sinks %d  simulated %v  wall %v\n", st.Cells, st.Sinks, o.duration, st.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "frames sent %d  delivered %d  collisions %d  below-sens %d  half-duplex %d\n",
		st.FramesSent, st.FramesDelivered, st.LostCollision, st.LostBelowSensitivity, st.LostHalfDuplex)
	fmt.Fprintf(w, "telemetry offered %d  delivered %d  PDR %.1f%%  mean latency %v\n",
		st.Offered, st.Delivered, 100*st.PDR(), st.MeanLatency().Round(time.Millisecond))
	fmt.Fprintf(w, "windows %d  fast-forwards %d  events %d  events/sec %.0f  state %.1fMB  shard busy %v (%.2f cores)  barrier wait %v\n",
		st.Windows, st.FastForwards, st.EventsFired, st.EventsPerSec(), float64(st.StateBytes)/(1<<20),
		st.ShardBusy.Round(time.Millisecond), st.ShardBusy.Seconds()/st.Wall.Seconds(), st.BarrierWait.Round(time.Millisecond))
	fmt.Fprintf(w, "digest %016x\n", sim.Digest())
	return nil
}
