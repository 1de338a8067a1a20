// Package core implements the LoRaMesher node engine — the library the
// demo paper runs on every LoRa node to form a mesh network.
//
// A Node is a deterministic, event-driven protocol state machine. It owns
// the distance-vector routing table, the HELLO beaconing service, the
// prioritized transmit queue with duty-cycle gating and optional
// listen-before-talk, hop-by-hop forwarding, and the reliable
// large-payload stream transport (SYNC / XL_DATA / ACK / LOST). The node
// performs no I/O and starts no goroutines of its own: a host — the
// discrete-event simulator (internal/netsim) or the goroutine-per-node
// live runtime (internal/livenet) — drives it through HandleFrame and
// scheduled callbacks and carries out its transmissions through the Env
// interface. That makes every simulation bit-for-bit reproducible while
// the identical engine also runs under real concurrency.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/forward"
	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/span"
	"repro/internal/trace"
)

// Env is the node's view of its host. Implementations serialize all calls
// into the node (the node is not safe for concurrent use) and must not
// re-enter the node synchronously from Transmit.
type Env interface {
	// Now returns the current time (virtual under simulation).
	Now() time.Time
	// Schedule runs fn after d. The returned cancel function prevents a
	// pending fn from running; cancelling after the fact is a no-op.
	Schedule(d time.Duration, fn func()) (cancel func())
	// Transmit puts an encoded frame on the air and returns its airtime.
	// The host signals completion by calling Node.HandleTxDone. The frame
	// buffer is valid only for the duration of the call — the node reuses
	// it for subsequent frames — so implementations that need the bytes
	// after returning must copy them.
	Transmit(frame []byte) (time.Duration, error)
	// ChannelBusy reports whether channel-activity detection senses an
	// ongoing transmission (listen-before-talk).
	ChannelBusy() (bool, error)
	// Deliver hands a received application message to the application.
	Deliver(msg AppMessage)
	// StreamDone reports the outcome of an outgoing reliable stream.
	StreamDone(ev StreamEvent)
	// Rand returns a uniform float64 in [0,1) from the host's seeded
	// source, used for protocol jitter.
	Rand() float64
}

// Timer is a reusable single-shot timer bound at creation to one
// callback. Reset (re)arms it, replacing any pending deadline; Stop
// disarms it, and stopping a disarmed timer is a no-op. Like Schedule,
// the callback runs in the host's execution context.
type Timer interface {
	Reset(d time.Duration)
	Stop()
}

// TimerEnv is optionally implemented by Envs that can hand out reusable
// timers more cheaply than Schedule. The node re-arms its recurring
// timers (queue pump, HELLO beacon, route expiry) on every cycle, and
// Schedule's per-call cancel closure is a measurable share of dense
// simulation allocation; a Timer amortizes that to one allocation per
// node. Envs without it get a Schedule-backed adapter.
type TimerEnv interface {
	NewTimer(fn func()) Timer
}

// NewEnvTimer builds a reusable timer from env — native when the env
// implements TimerEnv, Schedule-backed otherwise. Strategy wrappers
// (e.g. internal/slotted's beacon) use it so their recurring timers get
// the same amortization the node's own timers do.
func NewEnvTimer(env Env, fn func()) Timer { return newTimer(env, fn) }

// newTimer builds a reusable timer from env, native when available.
func newTimer(env Env, fn func()) Timer {
	if te, ok := env.(TimerEnv); ok {
		return te.NewTimer(fn)
	}
	return &schedTimer{env: env, fn: fn}
}

// schedTimer adapts Env.Schedule to the Timer shape for hosts without
// native timers.
type schedTimer struct {
	env    Env
	fn     func()
	cancel func()
}

func (t *schedTimer) Reset(d time.Duration) {
	if t.cancel != nil {
		t.cancel()
	}
	t.cancel = t.env.Schedule(d, func() {
		t.cancel = nil
		t.fn()
	})
}

func (t *schedTimer) Stop() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}

// AppMessage is a payload delivered to the application.
type AppMessage struct {
	// From is the originating node.
	From packet.Address
	// To is this node's address, or Broadcast.
	To packet.Address
	// Payload is the application data. The node allocates it fresh; the
	// application owns it.
	Payload []byte
	// Reliable marks payloads that arrived via the stream transport.
	Reliable bool
	// Trace is the delivering packet's causal trace ID (for an assembled
	// multi-chunk stream, a stable ID over the stream's end-to-end
	// identity and reassembled payload). It doubles as a dedup
	// fingerprint: re-deliveries of the same reading carry the same ID,
	// which is what the gateway's exactly-once uplink keys on.
	//
	// On a secured mesh (Config.Security set) the ID mixes the sender's
	// monotonic frame counter, so two distinct sends are always distinct
	// IDs even with byte-identical payloads, while mesh re-deliveries of
	// the same frame still share one.
	//
	// On a plaintext mesh the ID is content-derived — hashed from the
	// packet's invariant fields and payload, with no per-send nonce — so
	// two *distinct* sends from the same source with byte-identical
	// payloads share an ID and are indistinguishable from a mesh
	// re-delivery. Plaintext applications whose deliveries feed a
	// deduplicating consumer (the gateway's uplink spool) must make each
	// payload unique per reading: embed a sequence number or timestamp,
	// as netsim's traffic generator does.
	Trace trace.TraceID
	// At is the delivery time.
	At time.Time
}

// StreamEvent reports the completion or failure of an outgoing reliable
// stream.
type StreamEvent struct {
	// ID is the stream sequence id returned by SendReliable.
	ID uint8
	// Dst is the stream's destination.
	Dst packet.Address
	// Err is nil on success; otherwise the reason the stream failed.
	Err error
	// Chunks is the number of data chunks in the stream.
	Chunks int
	// Retransmissions counts chunk retransmissions performed.
	Retransmissions int
	// Elapsed is the time from SendReliable to completion.
	Elapsed time.Duration
}

// Errors returned by the application API.
var (
	ErrNoRoute      = errors.New("core: no route to destination")
	ErrQueueFull    = errors.New("core: transmit queue full")
	ErrTooLarge     = errors.New("core: payload too large")
	ErrStopped      = errors.New("core: node is stopped")
	ErrBusyStream   = errors.New("core: too many concurrent outgoing streams")
	ErrStreamFailed = errors.New("core: stream exhausted retries")
)

// Bounds every program runs at one value (DESIGN.md's options policy).
const (
	// queueCapacity bounds the transmit queue, in frames.
	queueCapacity = 64
	// cadBackoffPreambles is the deferral before re-checking a busy
	// channel, in frame-preamble times.
	cadBackoffPreambles = 3
	// cadMaxTries bounds deferrals before transmitting regardless.
	cadMaxTries = 8
	// maxOutStreams bounds concurrent outgoing streams.
	maxOutStreams = 4
	// maxInStreamsPerSource and maxInStreams bound the incoming streams
	// a node holds open — SYNC accepted, payload not yet whole — from one
	// source and in all. A sender has at most maxOutStreams open, and a
	// stream it gave up on stays open here for a grace period, so twice
	// that fits one honest source.
	maxInStreamsPerSource = 2 * maxOutStreams
	maxInStreams          = 64
	// maxInSingles bounds the single-packet transfers a node holds as
	// delivered, each for a grace period so that a copy is re-acknowledged,
	// not delivered twice. The evaluation's busiest node holds 20.
	maxInSingles = 1024
	// streamBackoff is the retransmission-timeout growth per consecutive
	// round without acknowledged progress.
	streamBackoff = 2
)

// Config parameterizes a node.
type Config struct {
	// Address is the node's 16-bit mesh address (unique per network).
	Address packet.Address
	// Role is advertised in HELLO packets; zero means RoleDefault.
	Role packet.Role
	// Phy selects the radio parameters; zero value means
	// loraphy.DefaultParams().
	Phy loraphy.Params
	// HelloPeriod is the routing-beacon interval; the prototype uses
	// 120 s. Zero means 120 s.
	HelloPeriod time.Duration
	// Routing tunes the routing table (TTL, hop cap, poisoning).
	Routing routing.Config
	// DutyCycleLimit caps airtime per rolling hour (0.01 = EU868 g1).
	// Zero means derive from Phy.FrequencyHz; 1 disables regulation.
	DutyCycleLimit float64
	// CAD enables listen-before-talk: the node defers transmissions
	// while it senses channel activity, re-checking every
	// cadBackoffPreambles preamble times (jittered) and transmitting
	// regardless after cadMaxTries deferrals.
	CAD bool
	// StreamWindow is the reliable-transport window in chunks: 1 is the
	// prototype's stop-and-wait; larger values enable go-back-N. Zero
	// means 1.
	StreamWindow int
	// StreamRetry is the retransmission timeout for unacknowledged
	// stream chunks. Zero means 12 s (several multi-hop frame times). It
	// grows streamBackoff-fold each consecutive round without
	// acknowledged progress (capped at 8x, jittered ±10%), so a congested
	// or healing path is not hammered at a fixed cadence.
	StreamRetry time.Duration
	// StreamPacing spaces consecutive window chunk transmissions so a
	// windowed transfer does not self-collide on a half-duplex
	// multi-hop path. Zero (the prototype) sends the window as fast as
	// the queue drains.
	StreamPacing time.Duration
	// StreamMaxRetries bounds retransmission rounds before a stream
	// fails. Zero means 6.
	StreamMaxRetries int
	// TriggeredUpdates withdraws routes the moment a next hop is known
	// dead — when a direct neighbor's entry expires, or when a reliable
	// stream exhausts its retries toward one — poisoning every route
	// through it (routing.Table.RemoveNeighbor) and broadcasting an
	// immediate HELLO (at most one per triggeredHelloGap) so neighbors
	// learn within one frame time instead of one EntryTTL. Off by default
	// (the prototype waits out timeouts); chaos scenarios enable it.
	TriggeredUpdates bool
	// Security, when set, arms link-layer authenticated encryption: every
	// frame this node transmits is sealed (encrypted + 4-byte MIC) under
	// the Link's network key, every received frame must verify and pass
	// the per-origin replay window before it is processed, and plaintext
	// frames are dropped — including forged HELLOs, which closes the
	// table-poisoning hole. The Link must be owned by the HOST and carry
	// the node's own address: engines are rebuilt on crash/restart, and
	// reusing the host's Link is what keeps the frame counter monotonic
	// so a rebooted node never reuses an AEAD nonce. Nil runs the legacy
	// plaintext protocol.
	Security *meshsec.Link
	// Tracer, when set, receives per-packet causal events keyed by the
	// packet's trace ID, in the classes the tracer was built with: the
	// narrative (origin, per-hop tx/rx, forwarding decisions, delivery,
	// every drop with its reason, plus host-agnostic protocol events)
	// and hop-level span segments (enqueue, queue-wait, airtime, rx,
	// forward, retransmit, deliver, drop; see internal/span), which
	// allocate nothing without a sink and so can stay armed. Nil
	// disables both; emission costs one nil check. The same tracer works
	// under the deterministic simulator and the live runtimes because
	// the node only stamps events with Env.Now.
	Tracer *trace.Tracer
	// OnControl, when set, lets the HOST handle the control-plane
	// commands the engine cannot perform on itself — radio (SF)
	// reconfiguration, sleep scheduling, reboots (see internal/control).
	// It is called from the node's execution context; returning false
	// means the host cannot either, and the node reports the command
	// unsupported. Nil means every host-level command is unsupported.
	OnControl func(cmd control.Command) bool
	// TxGate, when set, is consulted before every transmission (after
	// the duty-cycle check, before listen-before-talk): a positive
	// clearance defers the queue pump by that long. The slotted strategy
	// installs its TDMA schedule here. Nil transmits unconditionally.
	TxGate forward.TxGate
	// OnBeacon, when set, receives strategy control beacons
	// (TypeSlotBeacon frames) addressed to or overheard by this node,
	// after security verification. Nil ignores them.
	OnBeacon func(p *packet.Packet, info RxInfo)
}

func (c Config) withDefaults() Config {
	if c.Role == 0 {
		c.Role = packet.RoleDefault
	}
	if c.Phy == (loraphy.Params{}) {
		c.Phy = loraphy.DefaultParams()
	}
	if c.HelloPeriod <= 0 {
		c.HelloPeriod = 120 * time.Second
	}
	if c.StreamWindow <= 0 {
		c.StreamWindow = 1
	}
	if c.StreamRetry <= 0 {
		c.StreamRetry = 12 * time.Second
	}
	if c.StreamMaxRetries <= 0 {
		c.StreamMaxRetries = 6
	}
	return c
}

// EffectivePhy returns the PHY parameters a node built from this config
// will use, after defaulting. Hosts use it to configure the radio side.
func (c Config) EffectivePhy() loraphy.Params {
	return c.withDefaults().Phy
}

// EffectiveHelloPeriod returns the HELLO period after defaulting. Hosts
// use it to reason about convergence windows and clock-skew scaling.
func (c Config) EffectiveHelloPeriod() time.Duration {
	return c.withDefaults().HelloPeriod
}

// Validate checks the configuration.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if cc.Address == packet.Broadcast {
		return fmt.Errorf("core: node address must not be the broadcast address")
	}
	if err := cc.Phy.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cc.DutyCycleLimit < 0 || cc.DutyCycleLimit > 1 {
		return fmt.Errorf("core: duty-cycle limit %v out of [0,1]", cc.DutyCycleLimit)
	}
	if cc.Security != nil && cc.Security.Addr() != cc.Address {
		return fmt.Errorf("core: security link keyed for %v, node is %v",
			cc.Security.Addr(), cc.Address)
	}
	return nil
}

// Node is one LoRaMesher protocol engine. See the package comment for the
// execution model.
type Node struct {
	pathLog
	cfg   Config
	table *routing.Table
	// ins caches instrument pointers for the per-frame paths; Registry
	// lookups hash a name and take a mutex, which dominates dense
	// simulations when paid per frame.
	ins hotInstruments
	// sec mirrors cfg.Security; nil means the legacy plaintext protocol.
	sec *meshsec.Link
	// secStatTick counts frame opens; every 32nd refreshes the
	// replay-window gauges, whose walk of the per-origin windows would
	// show up in dense-simulation profiles if paid per frame.
	secStatTick uint32
	// rx and helloRows are what HandleFrame decodes each frame and each
	// HELLO's rows into. Nothing HandleFrame hands a frame to keeps it
	// past the call (the transmit queue copies a forward), so one of each
	// serves every reception. helloBuf holds the node's own beacon pages
	// while they are queued (see sendHello).
	rx        packet.Packet
	helloRows []packet.HelloEntry
	helloBuf  []byte

	started bool
	stopped bool

	// tx is the node's transmit path.
	tx *Transmitter

	// Beaconing and route maintenance.
	helloTimer  Timer
	expiryTimer Timer
	// lastTriggered rate-limits triggered route-withdrawal HELLOs.
	lastTriggered time.Time

	// Control plane (see internal/control): the last applied desired-state
	// document version and key epoch, echoed in command reports so the
	// controller's convergence detection has ground truth.
	ctlEpoch    uint32
	ctlKeyEpoch uint32

	// Reliable transport.
	nextSeqID  uint8
	outStreams map[uint8]*outStream
	inStreams  map[inKey]*inStream
	inOpen     map[packet.Address]int // open incoming streams by source
	inOpenAll  int
	inSingles  int // delivered single-packet transfers still held
	// ended holds the transfers sent that ended within streamGrace, oldest
	// first: at most 256 per destination, since allocStreamID skips their
	// ids for that destination.
	ended []endedStream

	// dedup is the forwarding loop-breaker (shared strategy-API
	// semantics; see forward.Dedup).
	dedup forward.Dedup
}

// NewNode creates a node. The env must outlive the node.
func NewNode(cfg Config, env Env) (*Node, error) {
	tx, err := NewTransmitter(cfg, env, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Node{
		pathLog:    tx.pathLog,
		cfg:        cfg,
		tx:         tx,
		table:      routing.NewTable(cfg.Address, cfg.Routing),
		outStreams: make(map[uint8]*outStream),
		inStreams:  make(map[inKey]*inStream),
		inOpen:     make(map[packet.Address]int),
		dedup:      forward.Dedup{Horizon: dedupHorizon},
		sec:        cfg.Security,
	}
	n.helloTimer = newTimer(env, n.helloTick)
	n.expiryTimer = newTimer(env, n.expiryTick)
	n.registerInstruments()
	return n, nil
}

// hotInstruments holds instrument pointers resolved once at construction
// for the counters, gauges, and histograms the receive and forwarding
// paths touch (the Transmitter keeps its own). Per-packet-type counters
// (rx.type.*) are filled lazily, one entry per type received.
type hotInstruments struct {
	rxFrames, fwdFrames               *metrics.Counter
	appSent, appDelivered             *metrics.Counter
	rxCorrupt, rxOwnEcho, rxOverheard *metrics.Counter
	helloReceived, routesUpdated      *metrics.Counter
	// helloSent is resolved at the first beacon, so the schema a node
	// registers at boot stays what it was.
	helloSent        *metrics.Counter
	routesCount      *metrics.Gauge
	streamRetxRounds *metrics.Histogram
	rxType           typeCounters
	// Security instruments; resolved only when cfg.Security is set.
	secOpened, secDropAuth   *metrics.Counter
	secDropReplay            *metrics.Counter
	secDropLegacy, secRekeys *metrics.Counter
	// Replay-protection state gauges, refreshed by refreshSecGauges.
	secWinOrigins, secWinOccupancy *metrics.Gauge
	secTxHigh, secRxHigh           *metrics.Gauge
}

// registerInstruments creates the node's instrument schema up front, so
// a /metrics scrape (or a dashboard) sees stable names from boot — a drop
// counter that reads 0 is very different from one that does not exist
// yet — and keeps the ones the per-frame paths touch.
func (n *Node) registerInstruments() {
	n.reg.Counter("drop." + forward.DropNoRoute)
	n.reg.Counter("drop." + forward.DropDuplicate)
	// stream.retx.rounds observes, per finished stream, the longest run
	// of consecutive retransmission rounds without acknowledged
	// progress — the bounded-retry evidence chaos runs assert on.
	n.ins.streamRetxRounds = n.reg.Histogram("stream.retx.rounds")
	n.ins.rxFrames = n.reg.Counter("rx.frames")
	n.ins.fwdFrames = n.reg.Counter("fwd.frames")
	n.ins.appSent = n.reg.Counter("app.sent")
	n.ins.appDelivered = n.reg.Counter("app.delivered")
	n.ins.rxCorrupt = n.reg.Counter("rx.corrupt")
	n.ins.rxOwnEcho = n.reg.Counter("rx.own_echo")
	n.ins.rxOverheard = n.reg.Counter("rx.overheard")
	n.ins.helloReceived = n.reg.Counter("hello.received")
	n.ins.routesUpdated = n.reg.Counter("routes.updated")
	n.ins.routesCount = n.reg.Gauge("routes.count")
	if n.cfg.Security != nil {
		n.ins.secOpened = n.reg.Counter("sec.rx.opened")
		n.ins.secDropAuth = n.reg.Counter("sec.drop.auth")
		n.ins.secDropReplay = n.reg.Counter("sec.drop.replay")
		n.ins.secDropLegacy = n.reg.Counter("sec.drop.legacy")
		n.ins.secRekeys = n.reg.Counter("sec.rekey.applied")
		n.ins.secWinOrigins = n.reg.Gauge("sec.replay.window.origins")
		n.ins.secWinOccupancy = n.reg.Gauge("sec.replay.window.occupancy")
		n.ins.secTxHigh = n.reg.Gauge("sec.counter.tx.highwater")
		n.ins.secRxHigh = n.reg.Gauge("sec.counter.rx.highwater")
	}
}

// typeCounters caches the per-packet-type counters "<prefix><T>" of one
// registry, registered on a type's first use. A node sees about a dozen
// wire types, so a short slice scanned in order beats a table indexed by
// the type byte, most of whose slots would stay empty.
type typeCounters []typeCounter

type typeCounter struct {
	t packet.Type
	c *metrics.Counter
}

// get returns the counter prefix+t.String() of reg, registering it on
// first use.
func (tc *typeCounters) get(reg *metrics.Registry, prefix string, t packet.Type) *metrics.Counter {
	for _, e := range *tc {
		if e.t == t {
			return e.c
		}
	}
	c := reg.Counter(prefix + t.String())
	*tc = append(*tc, typeCounter{t, c})
	return c
}

// pathLog is where a node accounts what happens to packets: its
// registry, and the narrative and span segments of its tracer. A Node and
// its Transmitter each hold a copy of the same one.
type pathLog struct {
	env    Env
	reg    *metrics.Registry
	tracer *trace.Tracer
	// traceOn and segsOn mirror the two classes tracer records
	// (narrative, span segments). Hot call sites test traceOn to skip
	// building tracePacket's variadic arguments: the []any boxing
	// allocates even when nothing is recorded.
	traceOn, segsOn bool
	// addrStr caches Address.String() — span segments carry the rendered
	// address, and formatting it per segment would allocate on the hot
	// path.
	addrStr string
}

func newPathLog(cfg Config, env Env, reg *metrics.Registry) pathLog {
	return pathLog{env: env, reg: reg, tracer: cfg.Tracer,
		traceOn: cfg.Tracer.Enabled(), segsOn: cfg.Tracer.Segments(), addrStr: cfg.Address.String()}
}

// tracePacket emits a narrative event about p, stamped with p's trace
// ID. It is a no-op when the narrative is off.
func (l *pathLog) tracePacket(kind trace.Kind, p *packet.Packet, format string, args ...any) {
	if !l.traceOn {
		return
	}
	l.tracer.EmitPacket(l.env.Now(), l.addrStr, kind,
		trace.TraceID(p.TraceID()), format, args...)
}

// segment emits one hop-level span segment for p. It is a no-op when
// segments are off, and otherwise allocates nothing: node and detail
// strings are pre-rendered or constant, and the trace ID hash works on
// the packet in place.
func (l *pathLog) segment(p *packet.Packet, seg span.Seg, dur time.Duration, detail string) {
	if !l.segsOn {
		return
	}
	l.tracer.EmitSeg(l.env.Now(), l.addrStr, trace.KindSpan,
		trace.TraceID(p.TraceID()), seg.String(), dur, detail)
}

// The methods below account one occurrence on a packet's path each — its
// counter, its narrative event and its span segment — so a call site
// reports what happened once. Narrative and segment keep the order each
// occurrence has always streamed them in.

// drop accounts a packet dropped for one of the forward.Drop* reasons.
func (l *pathLog) drop(p *packet.Packet, reason, format string, args ...any) {
	l.dropAs(l.reg.Counter("drop."+reason), p, reason, format, args...)
}

// dropAs is drop for the reasons whose counter is not drop.<reason>.
func (l *pathLog) dropAs(c *metrics.Counter, p *packet.Packet, reason, format string, args ...any) {
	c.Inc()
	l.tracePacket(trace.KindDrop, p, format, args...)
	l.segment(p, span.SegDrop, 0, reason)
}

// received accounts a routed packet accepted for processing.
func (n *Node) received(p *packet.Packet, info RxInfo) {
	n.segment(p, span.SegRx, 0, p.Type.String())
	if n.traceOn {
		n.tracePacket(trace.KindRx, p, "rx %v %v->%v snr=%.1f", p.Type, p.Src, p.Dst, info.SNRDB)
	}
}

// delivered accounts a datagram handed to the application.
func (n *Node) delivered(p *packet.Packet) {
	n.ins.appDelivered.Inc()
	n.segment(p, span.SegDeliver, 0, "data")
	if n.traceOn {
		n.tracePacket(trace.KindApp, p, "delivered %d bytes from %v", len(p.Payload), p.Src)
	}
}

// streamReceived accounts a reliable payload handed to the application;
// id is the delivering packet or, for a multi-chunk stream, the
// stream's synthetic identity.
func (n *Node) streamReceived(id *packet.Packet, detail string) {
	n.reg.Counter("stream.received").Inc()
	n.segment(id, span.SegDeliver, 0, detail)
}

// forwarded accounts a packet relayed one hop closer via next.
func (n *Node) forwarded(fwd *packet.Packet, next packet.Address) {
	n.ins.fwdFrames.Inc()
	n.segment(fwd, span.SegForward, 0, fwd.Type.String())
	if n.traceOn {
		n.tracePacket(trace.KindRoute, fwd, "forward %v->%v via %v", fwd.Src, fwd.Dst, next)
	}
}

// refreshSecGauges re-exports the link's replay-protection state —
// window occupancy and frame-counter high-water marks. Called every 32nd
// open (see secStatTick).
func (n *Node) refreshSecGauges() {
	origins, occupancy, rxHigh := n.sec.ReplayStats()
	n.ins.secWinOrigins.Set(float64(origins))
	n.ins.secWinOccupancy.Set(float64(occupancy))
	n.ins.secTxHigh.Set(float64(n.sec.Counter()))
	n.ins.secRxHigh.Set(float64(rxHigh))
}

// Address returns the node's mesh address.
func (n *Node) Address() packet.Address { return n.cfg.Address }

// Config returns the node's effective (defaulted) configuration.
func (n *Node) Config() Config { return n.cfg }

// Table exposes the routing table for inspection. Callers must access it
// only from the host's execution context.
func (n *Node) Table() *routing.Table { return n.table }

// Metrics exposes the node's instrument registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// AirtimeUsed returns the node's cumulative transmit airtime, including
// airtime spent under duty regulators replaced by control-plane
// reconfiguration.
func (n *Node) AirtimeUsed() time.Duration { return n.tx.airtimeUsed() }

// Start begins beaconing and route maintenance. The first HELLO is sent
// after a random fraction of the hello period, which desynchronizes nodes
// powered on together.
func (n *Node) Start() error {
	if n.stopped {
		return ErrStopped
	}
	if n.started {
		return fmt.Errorf("core: node %v already started", n.cfg.Address)
	}
	n.started = true
	first := time.Duration(n.env.Rand() * float64(n.cfg.HelloPeriod))
	n.helloTimer.Reset(first)
	n.expiryTimer.Reset(n.routeCheckPeriod())
	return nil
}

// Stop cancels all pending work. A stopped node ignores further frames.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.helloTimer.Stop()
	n.expiryTimer.Stop()
	n.tx.Stop()
	for _, s := range n.outStreams {
		if s.retryCancel != nil {
			s.retryCancel()
		}
		if s.fillCancel != nil {
			s.fillCancel()
		}
	}
	for _, s := range n.inStreams {
		if s.gcCancel != nil {
			s.gcCancel()
		}
	}
}

// routeCheckPeriod is how often stale routes are expired: a quarter of
// the routing entry TTL.
func (n *Node) routeCheckPeriod() time.Duration {
	ttl := n.cfg.Routing.EntryTTL
	if ttl <= 0 {
		ttl = routing.DefaultConfig().EntryTTL
	}
	return ttl / 4
}
