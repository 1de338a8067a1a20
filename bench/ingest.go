package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/packet"
	"repro/internal/trace"
)

// ingest_outage: the gateway half of the path, driven over the host's
// loopback interface (no real link): one gateway with two lanes, one
// generator goroutine, two HTTP connections.
//
//	steady    open loop at the fixed rate for --seconds; every reading is
//	          timed from the instant it was due, so a stalled generator
//	          counts against the system, not for it
//	outage    the backend fails, the gateway restarts, and one and a half
//	          times as many readings arrive with no uplinker: the WAL
//	          keeps them
//	recovery  the backend returns, a new gateway replays the WAL and
//	          drains it: readings per second until the backend holds all
//
// Outage and recovery run ingestOutages times: the drains are the measured
// pieces of the throughput.
const (
	ingestLanes      = 2
	ingestBatch      = 64
	ingestOutages    = 3
	ingestOutageLen  = 1.5 // outage length in steady phases
	ingestPayloadLen = 24
	ingestDupEvery   = 10 // one reading in every block of this many is offered twice
	ingestFirstAddr  = packet.Address(0x0100)
	ingestTimeout    = 120 * time.Second
	// ingestBackhaulBps is the nominal backhaul the uplink's airtime is
	// modelled on: loopback has no link to occupy, so the channel price of
	// a delivered reading is its share of the bytes POSTed, at this rate.
	ingestBackhaulBps = 1e6
)

// serveLog is one backend response: when the handler returned, how long
// it served, and how many readings the shard held afterwards.
type serveLog struct {
	at    time.Time
	took  time.Duration
	after int
}

// ingestEnv is the backend side: a sharded collector behind the
// benchmark's own handler on a loopback listener.
type ingestEnv struct {
	backend *gateway.ShardedBackend
	srv     *http.Server
	client  *http.Client
	urls    []string
	dir     string
	in      ingestInputs

	rec    *recorder
	parent atomic.Int64 // span the next handler spans are children of
	// postBytes sums the bodies of every POST, refused ones included:
	// they crossed the uplink too.
	postBytes atomic.Int64

	mu   [ingestLanes]sync.Mutex
	logs [ingestLanes][]serveLog
}

// ServeHTTP wraps the collector: it notes, per shard, when each response
// left and how many readings the shard then held — enough to time every
// reading afterwards without parsing anything on the request path.
func (e *ingestEnv) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	e.postBytes.Add(req.ContentLength)
	var i int
	if _, err := fmt.Sscanf(req.URL.Path, "/s/%d", &i); err != nil || i < 0 || i >= ingestLanes {
		e.backend.ServeHTTP(w, req) // its 404
		return
	}
	e.mu[i].Lock()
	defer e.mu[i].Unlock()
	before := e.backend.Shard(i).Distinct()
	sp := e.rec.begin("backend.ServeHTTP", int(e.parent.Load()))
	t0 := time.Now()
	e.backend.ServeHTTP(w, req)
	t1 := time.Now()
	after := e.backend.Shard(i).Distinct()
	e.rec.end(sp, after-before)
	e.logs[i] = append(e.logs[i], serveLog{t1, t1.Sub(t0), after})
}

// ingestInputs is everything the seed decides: each reading's origin, and
// which reading of every block of ingestDupEvery is offered twice.
type ingestInputs struct {
	origin  []packet.Address
	dupSlot []uint8
	rng     *rand.Rand // payload bytes, drawn as readings are offered
}

// ingestCounts returns how many readings the steady phase, one outage, and
// the whole run offer.
func ingestCounts(o options) (steady, outage, total int) {
	steady = int(o.seconds * float64(o.sz.ingestRate))
	outage = int(ingestOutageLen * float64(steady))
	return steady, outage, steady + ingestOutages*outage
}

func newIngestInputs(o options) ingestInputs {
	_, _, total := ingestCounts(o)
	in := ingestInputs{rng: rand.New(rand.NewSource(o.seed))}
	in.origin = make([]packet.Address, total)
	for i := range in.origin {
		in.origin[i] = ingestFirstAddr + packet.Address(in.rng.Intn(o.sz.ingestOrigins))
	}
	in.dupSlot = make([]uint8, (total+ingestDupEvery-1)/ingestDupEvery)
	for i := range in.dupSlot {
		in.dupSlot[i] = uint8(in.rng.Intn(ingestDupEvery))
	}
	return in
}

// newIngestEnv is the set-up setup_s times: the inputs, listener, server,
// WAL directory, and the first gateway.
func newIngestEnv(o options, rec *recorder) (*ingestEnv, *gateway.Gateway, error) {
	e := &ingestEnv{backend: gateway.NewShardedBackend(ingestLanes), rec: rec, in: newIngestInputs(o)}
	e.parent.Store(-1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	e.srv = &http.Server{Handler: e}
	go e.srv.Serve(ln) // returns when close() closes the server
	e.urls = e.backend.URLs("http://" + ln.Addr().String())
	e.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: ingestLanes, MaxIdleConnsPerHost: ingestLanes},
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		e.close()
		return nil, nil, err
	}
	if e.dir, err = os.MkdirTemp(o.outDir, "ingest-wal-"); err != nil {
		e.close()
		return nil, nil, err
	}
	g, err := e.newGateway(o)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	return e, g, nil
}

func (e *ingestEnv) newGateway(o options) (*gateway.Gateway, error) {
	_, _, total := ingestCounts(o)
	return gateway.New(gateway.Config{
		URLs:          e.urls,
		Addr:          0x00FE,
		SpoolPath:     filepath.Join(e.dir, "gw.wal"),
		SpoolCapacity: 2 * total, // the outage must fit: nothing may be dropped
		BatchSize:     ingestBatch,
		Pipeline:      1,
		FlushInterval: 50 * time.Millisecond,
		GroupCommit:   2 * time.Millisecond,
		Client:        e.client,
	})
}

// close stops the server and removes the WAL directory.
func (e *ingestEnv) close() {
	e.srv.Close()
	e.client.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// walBytes sums the WAL files' sizes, read from outside.
func (e *ingestEnv) walBytes() float64 {
	files, _ := filepath.Glob(filepath.Join(e.dir, "gw.wal*"))
	var n int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			n += st.Size()
		}
	}
	return float64(n)
}

// gwCounts accumulates the instruments of the three gateway instances a
// run goes through.
type gwCounts struct {
	offered, dupDropped, batches, uplinked, failures, compactions, replayed float64
	compactNs                                                               float64
}

func (c *gwCounts) add(g *gateway.Gateway) {
	m := g.Metrics()
	c.offered += float64(m.Counter("gw.offered").Value())
	c.dupDropped += float64(m.Counter("gw.drop.duplicate").Value())
	c.batches += float64(m.Counter("gw.uplink.batches").Value())
	c.uplinked += float64(m.Counter("gw.uplink.readings").Value())
	c.failures += float64(m.Counter("gw.uplink.failures").Value())
	c.compactions += float64(m.Counter("gw.spool.compactions").Value())
	c.replayed += float64(m.Counter("gw.spool.replayed").Value())
	c.compactNs += m.Histogram("gw.wal.compact_ns").Sum()
}

// ingestRun is one pass through the steady phase and the outages.
type ingestRun struct {
	steadyN, outageN int
	lat              []float64 // steady-phase latencies in seconds, ascending
	genLateMax       time.Duration
	backlog          int       // readings the recovery gateways found in their WALs
	drainPerS        []float64 // each recovery: backlog / (Start -> backend holds all)
	replayS          float64   // the recovery gateway.New calls, summed
	outageCloseS     float64   // the failing Close of the first outage
	liveMiB          float64
	walBytesPerRead  float64
	steadyFill       float64 // steady phase: readings per batch / batch size
	wall             time.Duration
	counts           gwCounts
	postBytes        float64

	distinct, doubleAccepted, dupUploads int
	admittedDups, refusedFirsts          int
	missingSamples                       int
}

// ingestOnce runs the steady phase and the outages against env, whose first
// gateway g is already open. With a recorder the gateway is driven by explicit Offer and
// Poll calls from this goroutine, every call a span; without, by its own
// uplinker (Start), as deployed.
func ingestOnce(o options, e *ingestEnv, g *gateway.Gateway, rec *recorder) (ingestRun, error) {
	var r ingestRun
	var total int
	r.steadyN, r.outageN, total = ingestCounts(o)
	interval := time.Second / time.Duration(o.sz.ingestRate)
	began := time.Now()
	root := rec.begin("run", -1)

	in := e.in
	offer := func(g *gateway.Gateway, idx int, at time.Time, parent int) {
		rd := gateway.Reading{
			From: in.origin[idx], To: 0x00FE, Trace: trace.TraceID(idx + 1),
			Payload: make([]byte, ingestPayloadLen), At: at,
		}
		in.rng.Read(rd.Payload)
		sp := rec.begin("gateway.Offer", parent)
		ok := g.Offer(rd)
		rec.end(sp, 1)
		if !ok {
			r.refusedFirsts++
		}
		if int(in.dupSlot[idx/ingestDupEvery]) == idx%ingestDupEvery {
			sp = rec.begin("gateway.Offer(dup)", parent)
			ok = g.Offer(rd)
			rec.end(sp, 1)
			if ok {
				r.admittedDups++
			}
		}
	}
	// poll is one explicit uplinker step of the traced run.
	poll := func(g *gateway.Gateway, name string, parent int) time.Duration {
		before := g.Metrics().Counter("gw.uplink.readings").Value()
		sp := rec.begin(name, parent)
		e.parent.Store(int64(sp))
		wait := g.Poll(time.Now())
		e.parent.Store(-1)
		moved := int(g.Metrics().Counter("gw.uplink.readings").Value() - before)
		if moved == 0 {
			// How often nothing is due is the driver's cadence, not the
			// gateway's cost: keep those polls out of the per-reading sums.
			rec.rename(sp, "gateway.Poll(idle)")
		}
		rec.end(sp, moved)
		return wait
	}
	waitFor := func(want int, step func()) error {
		deadline := time.Now().Add(ingestTimeout)
		for e.backend.Distinct() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("backend holds %d of %d readings after %v", e.backend.Distinct(), want, ingestTimeout)
			}
			step()
		}
		return nil
	}
	nap := func() { time.Sleep(time.Millisecond) }

	// Steady phase, open loop: reading i is due at start + i*interval and
	// is offered as soon after that as the generator runs.
	phase := rec.begin("steady", root)
	if rec == nil {
		g.Start()
	}
	start := time.Now()
	for i := 0; i < r.steadyN; {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			if rec != nil {
				if w := poll(g, "gateway.Poll(shallow)", phase); w < wait {
					wait = w
				}
			}
			time.Sleep(wait)
			continue
		}
		if late := time.Since(due); late > r.genLateMax {
			r.genLateMax = late
		}
		offer(g, i, due, phase)
		i++
	}
	// Let the tail drain so every steady reading is timed by this phase.
	step := nap
	if rec != nil {
		step = func() { time.Sleep(poll(g, "gateway.Poll(shallow)", phase)) }
	}
	if err := waitFor(r.steadyN, step); err != nil {
		return r, fmt.Errorf("steady phase: %w", err)
	}
	m := g.Metrics()
	r.steadyFill = ratio(float64(m.Counter("gw.uplink.readings").Value()),
		float64(m.Counter("gw.uplink.batches").Value())*ingestBatch)
	rec.end(phase, r.steadyN)

	offered := r.steadyN
	for c := 0; c < ingestOutages; c++ {
		// Outage: the backend fails, the gateway restarts, arrivals continue.
		phase = rec.begin("outage", root)
		e.backend.SetFailing(true)
		if err := g.Close(); err != nil {
			return r, err
		}
		r.counts.add(g)
		var err error
		if g, err = e.newGateway(o); err != nil {
			return r, err
		}
		for end := offered + r.outageN; offered < end; offered++ {
			offer(g, offered, time.Now(), phase)
		}
		sp := rec.begin("gateway.Close", phase)
		t0 := time.Now()
		err = g.Close() // the flush fails; the WAL keeps everything
		closeS := time.Since(t0).Seconds()
		rec.end(sp, 1)
		if err != nil {
			return r, err
		}
		r.counts.add(g)
		walBytes := e.walBytes()
		rec.end(phase, r.outageN)

		// Recovery: replay the WAL, then drain it.
		phase = rec.begin("recovery", root)
		e.backend.SetFailing(false)
		sp = rec.begin("gateway.New", phase)
		t0 = time.Now()
		g, err = e.newGateway(o)
		r.replayS += time.Since(t0).Seconds()
		if err != nil {
			return r, err
		}
		backlog := g.Pending()
		r.backlog += backlog
		rec.end(sp, backlog)
		if c == 0 {
			r.outageCloseS = closeS
			r.walBytesPerRead = ratio(walBytes, float64(backlog))
			r.liveMiB = liveHeapMiB()
		}
		t0 = time.Now()
		step = nap
		if rec == nil {
			g.Start()
		} else {
			step = func() { time.Sleep(poll(g, "gateway.Poll(deep)", phase)) }
		}
		if err := waitFor(offered, step); err != nil {
			return r, fmt.Errorf("recovery %d: %w", c, err)
		}
		r.drainPerS = append(r.drainPerS, ratio(float64(backlog), time.Since(t0).Seconds()))
		rec.end(phase, backlog)
	}
	if err := g.Close(); err != nil {
		return r, err
	}
	r.counts.add(g)
	rec.end(root, total)
	r.wall = time.Since(began)

	// The ledger, and one latency sample per steady reading: readings sit
	// in each shard in arrival order, so a response that raised the
	// shard's count from a to b carried readings a..b-1.
	r.postBytes = float64(e.postBytes.Load())
	r.distinct = e.backend.Distinct()
	r.doubleAccepted = e.backend.DoubleAccepted()
	r.dupUploads = e.backend.Duplicates()
	samples := make([]int, r.steadyN)
	for s := 0; s < ingestLanes; s++ {
		held := e.backend.Shard(s).Readings()
		from := 0
		for _, lg := range e.logs[s] {
			for ; from < lg.after && from < len(held); from++ {
				idx := int(held[from].Trace) - 1
				if idx >= 0 && idx < r.steadyN {
					samples[idx]++
					due := start.Add(time.Duration(idx) * interval)
					r.lat = append(r.lat, lg.at.Sub(due).Seconds())
				}
			}
		}
	}
	for _, n := range samples {
		if n != 1 {
			r.missingSamples++
		}
	}
	sort.Float64s(r.lat)
	return r, nil
}

// offered is how many distinct readings the run offered.
func (r ingestRun) offered() int { return r.steadyN + ingestOutages*r.outageN }

// failed is how many of the distinct readings offered were mishandled.
func (r ingestRun) failed() int {
	lost := r.offered() - r.distinct
	if lost < 0 {
		lost = -lost
	}
	return lost + r.doubleAccepted + r.dupUploads + r.admittedDups + r.refusedFirsts + r.missingSamples
}

func runIngest(o options) (*report, error) {
	rep := newReport(wIngestOutage)

	// setup_s: the whole set-up several times, median; the last one built
	// is the one the run uses.
	var env *ingestEnv
	var gw *gateway.Gateway
	setups := make([]float64, 8*o.sz.setups) // a set-up takes milliseconds
	for i := range setups {
		if env != nil {
			if err := gw.Close(); err != nil {
				return nil, err
			}
			env.close()
		}
		var err error
		t0 := time.Now()
		if env, gw, err = newIngestEnv(o, nil); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	plain, err := ingestOnce(o, env, gw, nil)
	env.close()
	if err != nil {
		return nil, err
	}
	rep.attempted = plain.offered()
	rep.failed = plain.failed()
	if rep.failed > 0 {
		rep.failures = append(rep.failures, plain.ledger("untraced"))
	}
	rep.fact("steady=%d outages=%dx%d backlog=%d drains=%.0f/s replay=%.3fs gen_late_max=%v lat_p50=%.3fms wall=%.3fs",
		plain.steadyN, ingestOutages, plain.outageN, plain.backlog, plain.drainPerS, plain.replayS, plain.genLateMax,
		1e3*quantile(plain.lat, 0.5), plain.wall.Seconds())
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["throughput_per_s"] = quietRate(plain.drainPerS)
	rep.e2e["live_heap_mb"] = plain.liveMiB
	rep.e2e["pdr"] = ratio(float64(plain.distinct), float64(rep.attempted))
	rep.e2e["delivery_p75_s"] = quantile(plain.lat, 0.75)
	rep.e2e["airtime_s_per_delivery"] = ratio(plain.postBytes*8/ingestBackhaulBps, float64(plain.distinct))
	if !o.trace {
		return rep, nil
	}

	rec := newRecorder(wIngestOutage)
	env, gw, err = newIngestEnv(o, rec)
	if err != nil {
		return nil, err
	}
	traced, err := ingestOnce(o, env, gw, rec)
	env.close()
	if err != nil {
		return nil, err
	}
	rep.attempted += traced.offered()
	if n := traced.failed(); n > 0 {
		rep.failed += n
		rep.failures = append(rep.failures, traced.ledger("traced"))
	}

	rep.layer = newLayerMap()
	l, c, t := rep.layer, traced.counts, rec.totals()
	perCall := func(name string) float64 { return ratio(float64(t[name].Total.Nanoseconds()), float64(t[name].Count)) }
	perReading := func(d time.Duration, name string) float64 { return ratio(float64(d.Nanoseconds()), float64(t[name].N)) }
	shallow, deep, serve := t["gateway.Poll(shallow)"], t["gateway.Poll(deep)"], t["backend.ServeHTTP"]
	l["gateway.offer_ns"] = perCall("gateway.Offer")
	l["gateway.offer_dup_ns"] = perCall("gateway.Offer(dup)")
	l["gateway.dedup_hit_ratio"] = ratio(c.dupDropped, c.offered)
	l["gateway.poll_ns_per_reading_shallow"] = perReading(shallow.Total, "gateway.Poll(shallow)")
	l["gateway.poll_ns_per_reading_deep"] = perReading(deep.Total, "gateway.Poll(deep)")
	// Poll minus the backend span inside it: JSON encoding, the HTTP
	// client, the WAL acknowledgement.
	l["gateway.poll_self_ns_per_reading"] = perReading(deep.Self, "gateway.Poll(deep)")
	l["gateway.backend_serve_ns_per_reading"] = perReading(serve.Total, "backend.ServeHTTP")
	l["gateway.batch_fill_ratio"] = traced.steadyFill
	l["gateway.batches"] = c.batches
	l["gateway.compactions"] = c.compactions
	l["gateway.compact_ms_total"] = c.compactNs / 1e6
	l["gateway.wal_replay_ns_per_record"] = ratio(traced.replayS*1e9, float64(traced.backlog))
	l["gateway.wal_bytes_per_reading"] = traced.walBytesPerRead
	l["gateway.uplink_failures"] = c.failures
	l["gateway.duplicate_uploads"] = float64(traced.dupUploads)
	l["gateway.close_s"] = traced.outageCloseS
	l["ingest.gen_late_ms_max"] = float64(plain.genLateMax.Nanoseconds()) / 1e6
	l["ingest.lat_p50_ms"] = 1e3 * quantile(plain.lat, 0.5)
	l["ingest.lat_p99_ms"] = 1e3 * quantile(plain.lat, 0.99)
	l["ingest.lat_p999_ms"] = 1e3 * quantile(plain.lat, 0.999)
	l["bench.delivery_p50_s"] = quantile(plain.lat, 0.5)
	l["bench.delivery_p99_s"] = quantile(plain.lat, 0.99)
	l["bench.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), plain.wall.Seconds())
	if err := rec.write(o.outDir); err != nil {
		return nil, fmt.Errorf("%s: %w", wIngestOutage, err)
	}
	return rep, nil
}

// ledger renders a run's exactly-once accounting for a failure message.
func (r ingestRun) ledger(which string) string {
	return fmt.Sprintf("%s run: offered %d distinct, backend holds %d; double-accepted %d, duplicate uploads %d, duplicate offers admitted %d, first offers refused %d, steady readings without exactly one latency sample %d",
		which, r.offered(), r.distinct, r.doubleAccepted, r.dupUploads, r.admittedDups, r.refusedFirsts, r.missingSamples)
}
