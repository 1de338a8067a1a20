// Package gateway bridges a LoRa mesh to an IP backend: the missing layer
// between a gateway-less field mesh and the infrastructure that ultimately
// consumes its data. A Gateway attaches to a sink-role node on either of
// the repo's mesh runtimes — the deterministic simulator (internal/netsim,
// via AttachSim) or the wall-clock runtime (internal/livenet over UDP
// sockets, via AttachHost) — and store-and-forwards every application
// delivery to an HTTP backend:
//
//   - every mesh delivery is deduplicated by its causal trace ID and
//     appended to a file-backed WAL spool (see spool.go), so no reading is
//     lost across a gateway restart; on a plaintext mesh the trace ID is
//     content-derived, so uplink payloads must be unique per reading (see
//     Reading.Trace — secured meshes mix a per-send counter and have no
//     such constraint);
//   - the ingest path is sharded: readings are partitioned across backend
//     shards by the consistent-hashed origin address (see shard.go), each
//     shard owning its own dedup horizon, WAL (with optional group
//     commit), uplink window, backoff, and circuit breaker — so shards
//     never contend on one lock, and a fleet of overlapping gateways maps
//     any given origin to the same backend shard, whose dedup delivers
//     cross-gateway exactly-once through handover and crash replay;
//   - an uplinker drains each shard in size- or time-triggered batches
//     over plain net/http POSTs, with up to Pipeline batches in flight
//     per shard (windowed acks), exponential backoff on failure, and a
//     per-shard circuit breaker after consecutive failures;
//   - the spool is a bounded queue: under sustained backend outage the
//     oldest pending reading gives way to the newcomer, so the spool holds
//     the freshest window of data, and each eviction is counted, never
//     silent;
//   - the backend's POST responses may carry downlink commands, which the
//     gateway injects back into the mesh through the node's normal
//     datagram/reliable API; versioned commands are applied idempotently,
//     so out-of-order batch acks cannot regress controller state.
//
// Every decision — admission, dedup, drop, batch outcome, breaker
// transition, downlink injection — surfaces through internal/metrics
// instruments and internal/trace events, so the bridge is as observable
// as the mesh under it.
package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

// Reading is one spooled uplink record: an application message the mesh
// delivered to the gateway node.
type Reading struct {
	// From is the originating mesh node — also the shard key: readings
	// from one origin always map to the same backend shard, on every
	// gateway in a fleet.
	From packet.Address
	// To is the gateway node's address (or broadcast).
	To packet.Address
	// Trace is the reading's end-to-end causal ID — the dedup key. On a
	// secured mesh (core.Config.Security set) the ID mixes the sender's
	// monotonic frame counter, so repeated byte-identical payloads are
	// distinct readings and dedup only ever suppresses true mesh-level
	// duplicates. On a plaintext mesh the ID is derived from packet
	// content with no per-send nonce, so two distinct readings from the
	// same sensor with byte-identical payloads share an ID and the later
	// one is suppressed as a duplicate within the dedup horizon —
	// plaintext uplink payloads must therefore be unique per reading
	// (embed a sequence number or timestamp; see core.AppMessage.Trace).
	Trace trace.TraceID
	// Payload is the application data.
	Payload []byte
	// Reliable marks readings that arrived via the stream transport.
	Reliable bool
	// At is the mesh delivery time (virtual under simulation).
	At time.Time
}

// Downlink is one backend→mesh command, returned in uplink responses.
type Downlink struct {
	// To is the destination mesh node.
	To packet.Address `json:"to"`
	// Payload is the command bytes.
	Payload []byte `json:"payload"`
	// Reliable selects the stream transport over a plain datagram.
	Reliable bool `json:"reliable,omitempty"`
	// Command, when set, is a typed control-plane command (see
	// internal/control); Payload is ignored and synthesized from it. Key
	// rotations (control.OpRekey) always ride the reliable transport —
	// a lost rotation partitions the mesh. Rotate the fleet
	// farthest-first and the gateway's own node last: receivers keep the
	// prior key live, so the mesh stays connected mid-rollout.
	Command *control.Command `json:"command,omitempty"`
}

// uplinkRequest is the POST body, as the backend decodes it;
// appendUplinkRequest is the encoder, parseUplinkRequest its twin.
type uplinkRequest struct {
	Gateway  packet.Address
	Readings []Reading
}

// appendUplinkRequest appends the POST body for one batch to dst.
func appendUplinkRequest(dst []byte, gw packet.Address, batch []Reading) []byte {
	dst = append(dst, `{"gateway":`...)
	dst = strconv.AppendUint(dst, uint64(gw), 10)
	dst = append(dst, `,"readings":[`...)
	for i := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendReading(dst, &batch[i])
	}
	return append(dst, ']', '}')
}

// parseUplinkRequest is appendUplinkRequest's twin: it decodes b when b is
// exactly a body that encoder writes, and reports ok false for anything
// else (see parseReading).
func parseUplinkRequest(b []byte) (ur uplinkRequest, ok bool) {
	if b, ok = cut(b, `{"gateway":`); !ok {
		return ur, false
	}
	if ur.Gateway, b, ok = parseAddr(b); !ok {
		return ur, false
	}
	if b, ok = cut(b, `,"readings":[`); !ok {
		return ur, false
	}
	if string(b) == "]}" {
		return ur, true
	}
	for {
		var r Reading
		if r, b, ok = parseReading(b); !ok {
			return uplinkRequest{}, false
		}
		ur.Readings = append(ur.Readings, r)
		if string(b) == "]}" {
			return ur, true
		}
		if b, ok = cut(b, ","); !ok {
			return uplinkRequest{}, false
		}
	}
}

// uplinkResponse is the POST response body.
type uplinkResponse struct {
	Accepted  int        `json:"accepted"`
	Downlinks []Downlink `json:"downlinks,omitempty"`
}

// Config parameterizes a gateway.
type Config struct {
	// URLs lists one uplink endpoint (POST) per backend shard, fixing the
	// shard count at len(URLs); a single backend is a one-element list.
	// Every entry must be an absolute http or https URL. Readings are
	// partitioned across shards by consistent-hashed origin address, so
	// every gateway configured with the same shard COUNT routes a given
	// origin to the same shard index — the property cross-gateway dedup
	// rests on. Keep the count stable across restarts of one spool
	// directory: each shard owns its own WAL file.
	URLs []string
	// Addr is the gateway node's mesh address, stamped on every uplink
	// request. Attach helpers fill it from the node when zero.
	Addr packet.Address
	// SpoolPath is the WAL file backing the spool; empty means a
	// memory-only spool (no restart durability). With multiple shards,
	// shard i's WAL lives at SpoolPath+".s<i>".
	SpoolPath string
	// SpoolCapacity bounds the pending queue, split evenly across
	// shards; a full shard evicts its oldest pending reading. Zero means
	// 1024.
	SpoolCapacity int
	// BatchSize is the most readings per POST; reaching it triggers an
	// immediate flush. Zero means 32.
	BatchSize int
	// FlushInterval is the time-triggered flush for partial batches.
	// Zero means 5 s.
	FlushInterval time.Duration
	// Pipeline is how many uplink batches may be in flight per backend
	// shard at once. Zero or one means stop-and-wait (the classic
	// behavior); higher values pipeline the uplink — the next batches
	// launch without waiting for the previous ack, multiplying
	// throughput on long round trips.
	Pipeline int
	// GroupCommit bounds how long an appended WAL record may wait in the
	// writer buffer before it is flushed to the OS. Zero flushes every
	// record immediately (classic behavior); a small interval (1–5 ms)
	// turns thousands of per-record write syscalls into a handful of
	// group commits under load, at the cost of a GroupCommit-sized
	// window a crash can lose — which a gateway fleet recovers through
	// handover re-delivery plus origin-sharded backend dedup.
	GroupCommit time.Duration
	// RetryBase is the first backoff after a failed POST; it doubles per
	// consecutive failure. Zero means 500 ms.
	RetryBase time.Duration
	// RetryMax caps the backoff. Zero means 1 min.
	RetryMax time.Duration
	// BreakerThreshold opens the circuit breaker after that many
	// consecutive failures. Zero means 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks attempts before
	// a half-open probe. Zero means 30 s.
	BreakerCooldown time.Duration
	// DedupHorizon bounds how many trace IDs each shard's spool
	// remembers for duplicate suppression. Zero means 8192.
	DedupHorizon int
	// Client performs the POSTs. Nil means an http.Client with a 10 s
	// timeout.
	Client *http.Client
	// Tracer, when set and recording span segments, receives the uplink
	// leg of each reading's span: spool admission (enqueue), spool
	// drops, and backend delivery on a successful batch ack. AttachSim
	// sets it to the simulation's tracer, so a reading's span tree runs
	// mesh hop → spool → uplink. Nil disables span capture.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.SpoolCapacity <= 0 {
		c.SpoolCapacity = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * time.Second
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.DedupHorizon <= 0 {
		c.DedupHorizon = 8192
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return c
}

// dlKey identifies one command stream for idempotent downlink
// application: per destination node, per operation.
type dlKey struct {
	to packet.Address
	op control.Op
}

// Gateway is a store-and-forward bridge instance. Create with New, feed
// with Offer (usually via AttachSim/AttachHost), and drive either with
// Start (real time, a goroutine per lane) or Poll (externally clocked — the
// deterministic simulator). It is safe for concurrent use.
//
// Internally the gateway is a set of independent shard lanes (see
// gwShard): Offer routes a reading to its origin's lane and touches only
// that lane's lock, and every drive drains a lane with one per-lane poll.
// Poll runs it on each lane in turn, each of Start's lane loops runs it on
// its own lane, and Close runs it once more per lane, so a lane never
// waits for a sibling's POST.
type Gateway struct {
	cfg Config
	reg *metrics.Registry
	// label is the node label on trace events and spans, "gw.<addr>".
	label string

	// Instruments the per-batch path touches, resolved once.
	gDepth, gBackoff         *metrics.Gauge
	cBatches, cReadings      *metrics.Counter
	hBatchSize, hRTT, hAgeMs *metrics.Histogram
	hCompactNs               *metrics.Histogram

	ring   *hashRing
	shards []*gwShard

	// mu guards the engine-level state below — never held across a
	// network call, never nested with a shard lock.
	mu      sync.Mutex
	sender  func(Downlink) error
	applied map[dlKey]uint32 // highest Seq injected per command stream

	closed atomic.Bool
	// draining makes every queued reading due: Close's last poll.
	draining atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// launch is one batch POST decided under a shard lock and executed
// outside it.
type launch struct {
	sh    *gwShard
	batch []Reading
	seqs  []uint64 // the batch's spool sequence numbers, for the ack
	resp  *uplinkResponse
	rtt   time.Duration
	err   error
}

// New opens the spools (replaying any WALs) and returns a ready gateway.
// Nothing uplinks until Start or Poll drives it.
func New(cfg Config) (*Gateway, error) {
	if err := validateURLs(cfg.URLs); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		label:   gwLabel(cfg.Addr),
		reg:     metrics.NewRegistry(),
		applied: make(map[dlKey]uint32),
		stop:    make(chan struct{}),
	}
	g.preRegisterInstruments()
	n := len(cfg.URLs)
	g.ring = newHashRing(n)
	perShardCap := (cfg.SpoolCapacity + n - 1) / n
	replayed := 0
	for i, u := range cfg.URLs {
		sp, err := openSpool(walShardPath(cfg.SpoolPath, i, n), perShardCap, cfg.DedupHorizon, g.reg)
		if err != nil {
			for _, sh := range g.shards {
				sh.sp.close()
			}
			return nil, err
		}
		sp.groupCommit = cfg.GroupCommit
		g.shards = append(g.shards, newGwShard(i, u, sp, g.reg))
		replayed += sp.replayed
	}
	if replayed > 0 {
		g.reg.Counter("gw.spool.replayed").Add(uint64(replayed))
	}
	g.gDepth.Set(float64(g.depth()))
	return g, nil
}

// gwLabel formats the node label of the gateway at addr.
func gwLabel(addr packet.Address) string { return fmt.Sprintf("gw.%v", addr) }

// validateURLs rejects a backend list the uplinker could not POST to, so
// a bad entry fails construction instead of the lane's first flush.
func validateURLs(urls []string) error {
	if len(urls) == 0 {
		return fmt.Errorf("gateway: config needs a backend URL")
	}
	for i, raw := range urls {
		u, err := url.Parse(raw)
		switch {
		case raw == "":
			return fmt.Errorf("gateway: URLs[%d] is empty", i)
		case err != nil:
			return fmt.Errorf("gateway: URLs[%d]: %v", i, err)
		case u.Scheme != "http" && u.Scheme != "https":
			return fmt.Errorf("gateway: URLs[%d] %q: scheme must be http or https", i, raw)
		case u.Host == "":
			return fmt.Errorf("gateway: URLs[%d] %q: no host", i, raw)
		}
	}
	return nil
}

// preRegisterInstruments creates the gateway's instrument schema up
// front, mirroring core.Node: a scrape sees stable names from boot.
func (g *Gateway) preRegisterInstruments() {
	for _, c := range []string{
		"gw.offered", "gw.accepted", "gw.drop.duplicate", "gw.drop.oldest",
		"gw.wal.errors", "gw.uplink.failures",
		"gw.breaker.opened", "gw.spool.replayed", "gw.spool.compactions",
		"gw.downlink.received", "gw.downlink.injected", "gw.downlink.errors",
		"gw.downlink.stale",
	} {
		g.reg.Counter(c)
	}
	// The per-batch path keeps the ones it touches, so it never looks an
	// instrument up by name.
	g.gDepth = g.reg.Gauge("gw.spool.depth")
	g.gBackoff = g.reg.Gauge("gw.backoff_ms")
	g.cBatches = g.reg.Counter("gw.uplink.batches")
	g.cReadings = g.reg.Counter("gw.uplink.readings")
	g.hBatchSize = g.reg.Histogram("gw.uplink.batch_size")
	g.hRTT = g.reg.Histogram("gw.uplink.rtt_ms")
	g.hAgeMs = g.reg.Histogram("gw.uplink.age_ms")
	g.reg.Gauge("gw.breaker.open")
	g.hCompactNs = g.reg.Histogram("gw.wal.compact_ns")
}

// admission accounts what Offer did with one reading: the gw.<counter>
// instrument and, when segments are recorded, the uplink-leg span
// segment, stamped with the wall clock as Offer has no other.
func (g *Gateway) admission(counter string, id trace.TraceID, seg span.Seg, detail string) {
	g.reg.Counter(counter).Inc()
	if g.cfg.Tracer.Segments() {
		g.cfg.Tracer.EmitSeg(time.Now(), g.label, trace.KindSpan, id, seg.String(), 0, detail)
	}
}

// uplinked accounts one reading the backend acknowledged at now: its
// spool age and, when segments are recorded, the two segments that close
// its span — queue-wait is the reading's spool residency, and the batch
// POST's round trip stands in for the uplink "airtime".
func (g *Gateway) uplinked(r Reading, now time.Time, rtt time.Duration) {
	g.hAgeMs.ObserveDuration(now.Sub(r.At))
	if t := g.cfg.Tracer; t.Segments() {
		t.EmitSeg(now, g.label, trace.KindSpan, r.Trace, span.SegQueueWait.String(), now.Sub(r.At), "gw_spool")
		t.EmitSeg(now, g.label, trace.KindSpan, r.Trace, span.SegDeliver.String(), rtt, "gw_uplink")
	}
}

// Metrics exposes the gateway's instrument registry.
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Addr returns the gateway's mesh address.
func (g *Gateway) Addr() packet.Address {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg.Addr
}

// setAddr fills the mesh address when the config left it zero (used by
// the attach helpers).
func (g *Gateway) setAddr(a packet.Address) {
	g.mu.Lock()
	if g.cfg.Addr == 0 {
		g.cfg.Addr = a
		g.label = gwLabel(a)
	}
	g.mu.Unlock()
}

// SetSender installs the downlink injector — the function that puts a
// backend command onto the mesh. Attach helpers wire it to the node's
// Send/SendReliable.
func (g *Gateway) SetSender(fn func(Downlink) error) {
	g.mu.Lock()
	g.sender = fn
	g.mu.Unlock()
}

// depth sums pending readings across shards.
func (g *Gateway) depth() int {
	total := 0
	for _, sh := range g.shards {
		sh.mu.Lock()
		total += sh.sp.len()
		sh.mu.Unlock()
	}
	return total
}

// Pending returns the number of spooled readings awaiting uplink.
func (g *Gateway) Pending() int { return g.depth() }

// BreakerOpen reports whether any shard's circuit breaker is open.
func (g *Gateway) BreakerOpen() bool {
	for _, sh := range g.shards {
		sh.mu.Lock()
		open := sh.breakerOpen
		sh.mu.Unlock()
		if open {
			return true
		}
	}
	return false
}

// Offer admits one reading into its origin's shard. It returns true when
// the reading was admitted, false when it was recognized as a duplicate
// (or refused: a shard holds under 4 GiB of pending payloads). The spool
// keeps its own copy, so the caller may reuse r.Payload once Offer
// returns. Offer never blocks on the network, and offers for different
// origins contend only on their own shard's lock.
func (g *Gateway) Offer(r Reading) bool {
	if control.IsReport(r.Payload) {
		// Control-plane feedback reaching the spool means no reconciler
		// observer is chained in front of the gateway (or the controller
		// runs elsewhere); count it so the miswiring is visible, then
		// spool it like any reading — the backend sees the raw report.
		g.reg.Counter("gw.reports.observed").Inc()
	}
	if g.closed.Load() {
		return false
	}
	sh := g.shards[g.ring.shard(r.From)]
	g.reg.Counter("gw.offered").Inc()
	sh.mu.Lock()
	dup, evictedID, evicted, err := sh.sp.add(r)
	depth := sh.sp.len()
	sh.mu.Unlock()

	if err == errSpoolFull {
		g.admission("gw.drop.full", r.Trace, span.SegDrop, "gw_full")
		return false
	}
	if err != nil {
		// The reading is queued in memory even when the WAL write
		// failed; durability degrades, delivery does not.
		g.reg.Counter("gw.wal.errors").Inc()
	}
	sh.gDepth.Set(float64(depth))
	g.gDepth.Set(float64(g.depth()))
	if dup {
		g.admission("gw.drop.duplicate", r.Trace, span.SegDrop, "gw_duplicate")
		return false
	}
	if evicted {
		g.admission("gw.drop.oldest", evictedID, span.SegDrop, "gw_evicted")
	}
	g.admission("gw.accepted", r.Trace, span.SegEnqueue, "gw_spool")
	if depth >= g.cfg.BatchSize {
		select {
		case sh.kick <- struct{}{}:
		default:
		}
	}
	return true
}

// OfferMessage admits a mesh delivery; like Offer, it copies the payload.
func (g *Gateway) OfferMessage(m core.AppMessage) bool {
	return g.Offer(Reading{From: m.From, To: m.To, Trace: m.Trace, Payload: m.Payload, Reliable: m.Reliable, At: m.At})
}

// Poll advances the uplinker at the given time: it performs every flush
// that is due (full batches drain eagerly, up to Pipeline batches in
// flight per shard; a partial batch flushes once FlushInterval has
// passed; per-shard backoff and breaker windows are respected; dirty WAL
// buffers group-commit when their interval expires) and returns how long
// until it next wants to run. Poll is the externally-clocked drive used
// by the simulator adapter.
//
// It drains the lanes in turn, each with the same poll Start's lane loops
// run. A lane's poll decides from that lane's state alone, and a simulated
// POST takes no virtual time, so a simulation stays deterministic.
func (g *Gateway) Poll(now time.Time) time.Duration {
	wait := time.Hour
	for _, sh := range g.shards {
		wait = min(wait, g.poll(sh, now))
	}
	return wait
}

// poll drains one lane at now: it launches every due batch, posts them
// (concurrently when the window holds several), applies the results in
// launch order, and repeats until nothing more is due, returning how long
// until the lane next wants to run.
func (g *Gateway) poll(sh *gwShard, now time.Time) time.Duration {
	for {
		launches, wait := g.collect(sh, now)
		if len(launches) == 0 {
			return wait
		}
		g.execute(launches)
		for _, l := range launches {
			g.apply(l, now)
		}
	}
}

// collect walks one lane under its lock, gathering every batch that may
// launch now and the earliest next-wake deadline otherwise. It also runs
// due WAL group commits — the spool flush clock rides the same drive as
// the uplinker.
func (g *Gateway) collect(sh *gwShard, now time.Time) ([]*launch, time.Duration) {
	if g.closed.Load() {
		return nil, time.Hour
	}
	minWait := time.Hour
	var launches []*launch
	sh.mu.Lock()
	for {
		wait, attempt := g.decideShard(sh, now)
		if !attempt {
			minWait = min(minWait, wait)
			break
		}
		batch, seqs := sh.sp.take(g.cfg.BatchSize)
		if len(batch) == 0 {
			break
		}
		sh.inflightBatches++
		sh.gInflight.Set(float64(sh.inflightBatches))
		launches = append(launches, &launch{sh: sh, batch: batch, seqs: seqs})
		if sh.breakerOpen {
			// Half-open: exactly one probe batch.
			break
		}
	}
	if err := sh.sp.commitIfDue(now); err != nil {
		g.reg.Counter("gw.wal.errors").Inc()
	}
	if dl, ok := sh.sp.commitDeadline(); ok {
		minWait = min(minWait, dl.Sub(now))
	}
	sh.mu.Unlock()
	return launches, max(minWait, 0)
}

// decideShard reports whether a flush attempt is due on one shard at
// now, or how long to wait otherwise. Caller holds sh.mu.
func (g *Gateway) decideShard(sh *gwShard, now time.Time) (time.Duration, bool) {
	if sh.lastFlush.IsZero() {
		sh.lastFlush = now
	}
	if sh.breakerOpen {
		if now.Before(sh.breakerTil) {
			return sh.breakerTil.Sub(now), false
		}
		if sh.inflightBatches > 0 {
			// The half-open probe is already out; wait for its verdict.
			return g.cfg.FlushInterval, false
		}
		// Half-open: one probe attempt passes straight through — the
		// breaker supersedes the per-attempt backoff gate.
	} else if now.Before(sh.nextRetryAt) {
		return sh.nextRetryAt.Sub(now), false
	}
	if sh.inflightBatches >= g.cfg.Pipeline {
		// Window full; an ack will reopen it.
		return g.cfg.FlushInterval, false
	}
	avail := sh.sp.queued()
	if avail <= 0 {
		if sh.sp.len() == 0 {
			sh.lastFlush = now
		}
		return g.cfg.FlushInterval, false
	}
	if avail >= g.cfg.BatchSize || g.draining.Load() || now.Sub(sh.lastFlush) >= g.cfg.FlushInterval {
		return 0, true
	}
	return sh.lastFlush.Add(g.cfg.FlushInterval).Sub(now), false
}

// execute performs the launches' POSTs — inline when there is only one
// (the stop-and-wait fast path keeps its old single-threaded profile),
// concurrently otherwise. All posts complete before execute returns;
// results are applied by the caller in launch order.
func (g *Gateway) execute(launches []*launch) {
	if len(launches) == 1 {
		l := launches[0]
		l.resp, l.rtt, l.err = g.post(l.sh.url, g.Addr(), l.batch)
		return
	}
	addr := g.Addr()
	var wg sync.WaitGroup
	wg.Add(len(launches))
	for _, l := range launches {
		go func(l *launch) {
			defer wg.Done()
			l.resp, l.rtt, l.err = g.post(l.sh.url, addr, l.batch)
		}(l)
	}
	wg.Wait()
}

// apply folds one completed launch back into its shard's state: failure
// advances backoff and may open the breaker; success acks the WAL,
// closes a half-open breaker, and injects any downlinks.
func (g *Gateway) apply(l *launch, now time.Time) {
	sh := l.sh
	sh.mu.Lock()
	sh.inflightBatches--
	sh.gInflight.Set(float64(sh.inflightBatches))

	if l.err != nil {
		sh.sp.release(l.seqs)
		sh.consecFails++
		g.reg.Counter("gw.uplink.failures").Inc()
		backoff := g.backoff(sh.consecFails)
		sh.nextRetryAt = now.Add(backoff)
		g.gBackoff.Set(float64(backoff) / float64(time.Millisecond))
		opened := false
		if g.cfg.BreakerThreshold > 0 && sh.consecFails >= g.cfg.BreakerThreshold {
			sh.breakerOpen = true
			sh.breakerTil = now.Add(g.cfg.BreakerCooldown)
			g.reg.Gauge("gw.breaker.open").Set(1)
			sh.gBreaker.Set(1)
			opened = true
		}
		sh.mu.Unlock()
		if opened {
			g.reg.Counter("gw.breaker.opened").Inc()
		}
		return
	}

	// Success: acknowledge the batch in the WAL, reset failure state.
	if wErr := sh.sp.ackAt(l.batch, l.seqs, now); wErr != nil {
		g.reg.Counter("gw.wal.errors").Inc()
	}
	if sh.breakerOpen {
		sh.breakerOpen = false
		g.reg.Gauge("gw.breaker.open").Set(0)
		sh.gBreaker.Set(0)
	}
	sh.consecFails = 0
	sh.nextRetryAt = time.Time{}
	sh.lastFlush = now
	depth := sh.sp.len()
	compactDue := sh.sp.compactDue()
	sh.mu.Unlock()

	sh.gDepth.Set(float64(depth))
	sh.cUplinked.Add(uint64(len(l.batch)))
	g.gBackoff.Set(0)
	g.gDepth.Set(float64(g.depth()))
	g.cBatches.Inc()
	g.cReadings.Add(uint64(len(l.batch)))
	g.hBatchSize.Observe(float64(len(l.batch)))
	g.hRTT.ObserveDuration(l.rtt)
	for _, r := range l.batch {
		g.uplinked(r, now, l.rtt)
	}
	if compactDue {
		g.compactShard(sh)
	}
	g.injectDownlinks(l.resp.Downlinks)
}

// compactShard rewrites one shard's WAL off the hot path: the pending
// snapshot is taken under the lock, the O(capacity) bulk write runs
// unlocked (admissions and other shards proceed), and the atomic rename
// happens back under the lock. The stall a compaction does cost is
// observed into gw.wal.compact_ns.
func (g *Gateway) compactShard(sh *gwShard) {
	start := time.Now()
	sh.mu.Lock()
	snap, ok := sh.sp.beginCompact()
	sh.mu.Unlock()
	if !ok {
		return
	}
	st := sh.sp.writeCompactTmp(snap)
	sh.mu.Lock()
	err := sh.sp.finishCompact(st)
	sh.mu.Unlock()
	g.hCompactNs.Observe(float64(time.Since(start)))
	if err != nil {
		g.reg.Counter("gw.wal.errors").Inc()
	}
}

// post performs the HTTP round trip against one shard's endpoint.
func (g *Gateway) post(url string, addr packet.Address, batch []Reading) (*uplinkResponse, time.Duration, error) {
	size := 32 + len(batch)*readingMaxOverhead
	for i := range batch {
		size += base64.StdEncoding.EncodedLen(len(batch[i].Payload))
	}
	body := appendUplinkRequest(make([]byte, 0, size), addr, batch)
	start := time.Now()
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: %w", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.Client.Do(hr)
	if err != nil {
		return nil, time.Since(start), fmt.Errorf("gateway: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, fmt.Errorf("gateway: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, rtt, fmt.Errorf("gateway: backend status %d", resp.StatusCode)
	}
	ur, err := decodeUplinkResponse(raw)
	return ur, rtt, err
}

// decodeUplinkResponse decodes a 2xx response body; an empty one accepts
// the batch with no downlinks.
func decodeUplinkResponse(raw []byte) (*uplinkResponse, error) {
	var ur uplinkResponse
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &ur); err != nil {
			return nil, fmt.Errorf("gateway: decode response: %w", err)
		}
	}
	return &ur, nil
}

// injectDownlinks pushes backend commands into the mesh via the sender.
func (g *Gateway) injectDownlinks(cmds []Downlink) {
	if len(cmds) == 0 {
		return
	}
	g.reg.Counter("gw.downlink.received").Add(uint64(len(cmds)))
	for _, d := range cmds {
		g.Inject(d) // errors are counted inside
	}
}

// Inject pushes one downlink command into the mesh immediately — the
// path both backend-returned downlinks and a locally attached
// control-plane reconciler (internal/control) share.
//
// Versioned commands (Command.Seq set) are applied idempotently per
// (destination, op) stream: a command older than one already injected is
// skipped, so out-of-order batch acks from the pipelined uplink cannot
// regress controller state. Retries of the CURRENT version pass through
// — the controller keeps Seq stable across retries, and suppressing them
// would break its delivery loop.
func (g *Gateway) Inject(d Downlink) error {
	g.mu.Lock()
	sender := g.sender
	g.mu.Unlock()
	if sender == nil {
		g.reg.Counter("gw.downlink.errors").Inc()
		return fmt.Errorf("gateway: no mesh sender attached")
	}
	if d.Command != nil && d.Command.Seq != 0 {
		key := dlKey{to: d.To, op: d.Command.Op}
		g.mu.Lock()
		last, seen := g.applied[key]
		stale := seen && d.Command.Seq < last
		g.mu.Unlock()
		if stale {
			g.reg.Counter("gw.downlink.stale").Inc()
			return nil
		}
	}
	if d.Command != nil {
		d.Payload = control.MarshalCommand(*d.Command)
		if d.Command.Op == control.OpRekey {
			// A lost key rotation partitions the mesh: always reliable.
			d.Reliable = true
		}
		g.reg.Counter("gw.downlink.commands").Inc()
	}
	if err := sender(d); err != nil {
		g.reg.Counter("gw.downlink.errors").Inc()
		return err
	}
	if d.Command != nil && d.Command.Seq != 0 {
		key := dlKey{to: d.To, op: d.Command.Op}
		g.mu.Lock()
		if d.Command.Seq > g.applied[key] {
			g.applied[key] = d.Command.Seq
		}
		g.mu.Unlock()
	}
	g.reg.Counter("gw.downlink.injected").Inc()
	return nil
}

// backoffScale is the fixed fraction of the exponential delay a retry
// waits.
const backoffScale = 0.75

// backoff computes the delay before the retry after the nth consecutive
// failure (n >= 1): RetryBase doubled per failure, capped at RetryMax,
// times backoffScale. It is deterministic — retries are not jittered.
func (g *Gateway) backoff(n int) time.Duration {
	d := g.cfg.RetryBase
	for i := 1; i < n && d < g.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > g.cfg.RetryMax {
		d = g.cfg.RetryMax
	}
	return time.Duration(float64(d) * backoffScale)
}

// Start launches the real-time drain (livenet hosts and cmd/meshgw): one
// loop per lane, each on its own timer and woken by Offer when its batch
// fills, so a slow POST holds up only its own lane. Pair with Close.
func (g *Gateway) Start() {
	for _, sh := range g.shards {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for {
				timer := time.NewTimer(g.poll(sh, time.Now()))
				select {
				case <-g.stop:
					timer.Stop()
					return
				case <-sh.kick:
					timer.Stop()
				case <-timer.C:
				}
			}
		}()
	}
}

// Close stops the lane loops, then drains what the backend will take with
// one last poll per lane in which every queued reading is due, and closes
// the spool WALs. It retries nothing: a POST that fails backs its lane off
// for the rest of that poll, and a lane already backed off or behind an
// open breaker is left alone. Readings still pending remain in the WALs
// for the next process to replay.
func (g *Gateway) Close() error {
	if g.closed.Load() {
		return nil
	}
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()

	g.draining.Store(true)
	now := time.Now()
	for _, sh := range g.shards {
		g.poll(sh, now)
	}

	g.closed.Store(true)
	var firstErr error
	for _, sh := range g.shards {
		sh.mu.Lock()
		if err := sh.sp.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// crash abandons the gateway without the final drain or WAL flush —
// test and load-harness support for modeling a process crash: buffered
// group-commit records are lost, pending readings stay only as far as
// the WAL's last flush, exactly as kill -9 would leave them. A successor
// built on the same SpoolPath replays what was durable.
func (g *Gateway) crash() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.closed.Store(true)
	for _, sh := range g.shards {
		sh.mu.Lock()
		sh.sp.crash()
		sh.mu.Unlock()
	}
}
