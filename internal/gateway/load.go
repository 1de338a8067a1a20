package gateway

// load.go — the ingest load harness behind cmd/meshload and experiment
// E17. It stands up a real sharded HTTP backend on a loopback listener,
// runs a fleet of gateways against it at full speed, and reports
// wall-clock ingest throughput together with the exactly-once ledger
// (distinct accepted, redundant uploads suppressed, double-accepted
// violations, losses). Everything runs in-process over real sockets, so
// the numbers include JSON encoding, HTTP round trips, and WAL fsync
// behavior — the layers the batching/pipelining knobs exist to amortize.

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

// LoadConfig parameterizes one ingest load run.
type LoadConfig struct {
	// Readings is the total number of distinct readings offered. Zero
	// means 10000.
	Readings int
	// Origins is how many distinct origin addresses the readings spread
	// over (the shard key population). Zero means 64.
	Origins int
	// Gateways is the fleet size; readings are assigned round-robin.
	// Zero means 1.
	Gateways int
	// Shards is the backend shard count. Zero means 1.
	Shards int
	// BatchSize, Pipeline and GroupCommit are handed to every gateway
	// (see Config). Zero BatchSize means 64.
	BatchSize   int
	Pipeline    int
	GroupCommit time.Duration
	// SpoolDir, when set, backs each gateway with a WAL file inside it
	// (gw<i>.wal); empty runs memory-only spools.
	SpoolDir string
	// Overlap is the fraction of readings offered to a second gateway as
	// well — the duplicate delivery a mesh handover produces. The backend
	// must suppress every one.
	Overlap float64
	// CrashRestart kills gateway 0 mid-run (no final flush, buffered
	// group-commit window lost), re-delivers its readings through the
	// next gateway — the fleet handover — and then restarts it from its
	// WAL. Requires Gateways >= 2 and SpoolDir.
	CrashRestart bool
	// BackendLatency delays every backend response by this much — the
	// WAN round trip a real uplink pays. Zero replies at loopback speed,
	// which makes every configuration CPU-bound and hides the pipelining
	// win; the E17 matrix uses a realistic 10 ms.
	BackendLatency time.Duration
	// Seed drives reading assignment; runs are reproducible per seed up
	// to wall-clock columns. Zero means 1.
	Seed int64
}

const (
	// loadFlushInterval is every load gateway's partial-batch flush
	// interval.
	loadFlushInterval = 200 * time.Millisecond
	// loadTimeout bounds the drain wait.
	loadTimeout = 60 * time.Second
)

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Readings <= 0 {
		c.Readings = 10000
	}
	if c.Origins <= 0 {
		c.Origins = 64
	}
	if c.Gateways <= 0 {
		c.Gateways = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Readings, Origins, Gateways, Shards int
	BatchSize, Pipeline                 int
	GroupCommit, BackendLatency         time.Duration

	// Offered counts Offer calls across the fleet (>= Readings when
	// Overlap or CrashRestart re-delivers).
	Offered int
	// Distinct is how many unique readings the backend accepted.
	Distinct int
	// Duplicates is redundant uploads the backend suppressed — wasted
	// uplink work, not a correctness violation.
	Duplicates int
	// DoubleAccepted counts readings accepted by more than one backend
	// shard — the exactly-once violation; must be zero.
	DoubleAccepted int
	// Lost is Readings - Distinct at the deadline; must be zero.
	Lost int
	// Batches is successful uplink POSTs.
	Batches int
	// Elapsed is offer-start to full acceptance (or deadline).
	Elapsed time.Duration
	// ReadingsPerSec is Distinct / Elapsed.
	ReadingsPerSec float64
}

// ExactlyOnce reports whether delivery was complete with no reading
// accepted twice.
func (r LoadReport) ExactlyOnce() bool {
	return r.Lost == 0 && r.DoubleAccepted == 0 && r.Distinct == r.Readings
}

// String renders the report as one human-readable line.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"%d readings %d origins | %d gw x %d shards batch %d pipeline %d gc %v rtt %v | %.0f readings/s in %v | distinct %d dupes %d double-accepted %d lost %d",
		r.Readings, r.Origins, r.Gateways, r.Shards, r.BatchSize, r.Pipeline, r.GroupCommit, r.BackendLatency,
		r.ReadingsPerSec, r.Elapsed.Round(time.Millisecond),
		r.Distinct, r.Duplicates, r.DoubleAccepted, r.Lost)
}

// RunLoad executes one load run and returns its report.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	if cfg.CrashRestart && (cfg.Gateways < 2 || cfg.SpoolDir == "") {
		return LoadReport{}, fmt.Errorf("meshload: CrashRestart needs Gateways >= 2 and a SpoolDir")
	}

	sb := NewShardedBackend(cfg.Shards)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return LoadReport{}, fmt.Errorf("meshload: %w", err)
	}
	var handler http.Handler = sb
	if cfg.BackendLatency > 0 {
		handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			time.Sleep(cfg.BackendLatency)
			sb.ServeHTTP(w, req)
		})
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln) //nolint:errcheck // closed via ln below
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	// One shared client sized for the full fleet's windows, so pipelined
	// batches reuse connections instead of fighting the default idle cap.
	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Gateways*cfg.Shards*cfg.Pipeline + 4,
			MaxIdleConnsPerHost: cfg.Gateways*cfg.Shards*cfg.Pipeline + 4,
		},
	}

	gwCfg := func(i int) Config {
		c := Config{
			URLs:          sb.URLs(base),
			Addr:          packet.Address(0xF000 + i),
			BatchSize:     cfg.BatchSize,
			FlushInterval: loadFlushInterval,
			Pipeline:      cfg.Pipeline,
			GroupCommit:   cfg.GroupCommit,
			// The harness offers at memory speed with no mesh pacing, so
			// each shard must hold a full backlog: capacity is per-gateway
			// and split evenly across shards (see Config.SpoolCapacity).
			SpoolCapacity: 2 * cfg.Readings * cfg.Shards,
			DedupHorizon:  2 * cfg.Readings,
			Client:        client,
		}
		if cfg.SpoolDir != "" {
			c.SpoolPath = filepath.Join(cfg.SpoolDir, fmt.Sprintf("gw%d.wal", i))
		}
		return c
	}

	gws := make([]*Gateway, cfg.Gateways)
	for i := range gws {
		g, err := New(gwCfg(i))
		if err != nil {
			return LoadReport{}, fmt.Errorf("meshload: gateway %d: %w", i, err)
		}
		g.Start()
		gws[i] = g
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	mkReading := func(i int) Reading {
		return Reading{
			From:    packet.Address(2 + i%cfg.Origins),
			To:      0x0001,
			Trace:   trace.TraceID(uint64(i) + 1),
			Payload: []byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)},
			At:      time.Now(),
		}
	}

	report := LoadReport{
		Readings: cfg.Readings, Origins: cfg.Origins,
		Gateways: cfg.Gateways, Shards: cfg.Shards,
		BatchSize: cfg.BatchSize, Pipeline: cfg.Pipeline,
		GroupCommit: cfg.GroupCommit, BackendLatency: cfg.BackendLatency,
	}
	crashAt := cfg.Readings / 2
	live := append([]*Gateway(nil), gws...)
	start := time.Now()
	for i := 0; i < cfg.Readings; i++ {
		if cfg.CrashRestart && i == crashAt {
			// kill -9 gateway 0: its buffered group-commit window and
			// unacked spool are gone from the process. The fleet hands its
			// readings over through gateway 1; the origin-sharded backend
			// suppresses whatever gateway 0 had already uploaded.
			gws[0].crash()
			live = live[1:]
			for j := 0; j < i; j++ {
				if j%cfg.Gateways == 0 {
					gws[1].Offer(mkReading(j))
					report.Offered++
				}
			}
			// Restart from the surviving WAL: replayed pending readings
			// re-upload and dedup to zero extra accepts.
			g, err := New(gwCfg(0))
			if err != nil {
				return report, fmt.Errorf("meshload: restart gateway 0: %w", err)
			}
			g.Start()
			gws[0] = g
			live = append(live, g)
		}
		primary := i % len(live)
		live[primary].Offer(mkReading(i))
		report.Offered++
		if cfg.Overlap > 0 && len(live) > 1 && rng.Float64() < cfg.Overlap {
			live[(primary+1)%len(live)].Offer(mkReading(i))
			report.Offered++
		}
	}

	deadline := time.Now().Add(loadTimeout)
	for sb.Distinct() < cfg.Readings && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	report.Elapsed = time.Since(start)

	var firstErr error
	for _, g := range gws {
		if err := g.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	report.Distinct = sb.Distinct()
	report.Duplicates = sb.Duplicates()
	report.DoubleAccepted = sb.DoubleAccepted()
	report.Batches = sb.Batches()
	report.Lost = cfg.Readings - report.Distinct
	if report.Lost < 0 {
		report.Lost = 0
	}
	if report.Elapsed > 0 {
		report.ReadingsPerSec = float64(report.Distinct) / report.Elapsed.Seconds()
	}
	return report, firstErr
}
