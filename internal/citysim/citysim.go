// Package citysim is the city-scale sharded discrete-event simulator: a
// compact telemetry-profile mesh engine (periodic HELLOs building
// Bellman-Ford sink trees, bounded queues, CSMA with deterministic
// backoff, EU868 duty budgets) over the loraphy channel model, designed to
// run 10k-100k nodes where the full per-node engine in internal/netsim
// tops out at tens.
//
// # Spatial sharding
//
// The field is partitioned into a geo.CellGrid whose cell side is at least
// the maximum radio-relevant distance (delivery or interference range plus
// the shadowing margin), so everything a transmission can touch lies in
// the 3x3 cell neighborhood of its sender. Cells are grouped into
// contiguous column stripes balanced by node count; each stripe is a shard
// with its own simtime event wheel. A shard additionally tracks in-flight
// transmissions in its one-column halo so interference and carrier sense
// at its border nodes see foreign traffic.
//
// # Node state in space order
//
// Node state is stored by slot, and slots ascend by (cell column, cell
// row, id), so each stripe's nodes are one contiguous slot range and two
// shards share cache lines only at their border. The id — the node's index
// in the placement — stays wherever its value is model material: hash and
// shadowing keys, the barrier tie-break, sink election, initial
// scheduling, the digest and the delivery log. Everything else, the link
// slabs included, names nodes by slot.
//
// # Conservative windowed synchronization
//
// Shards run in lockstep windows of width W <= the minimum frame airtime
// (the conservative lookahead: no transmission can start and finish inside
// one window). Each window has two phases with a barrier between them:
// phase A runs every shard's wheel through the window with
// simtime.RunBefore; the barrier merges all shards' transmission outboxes
// into one globally sorted list (by start instant, then sender); phase B
// has every shard integrate that list into its cell tx-index and schedule
// reception evaluations. Phase B rides at the head of the next window's
// command, so a window costs one rendezvous, and a shard that waits for
// its next command polls before it parks (shard.go). A frame ending at e
// is evaluated at e+W, by which point every transmission that could
// overlap it has crossed a barrier —
// the interferer set is exact, at the cost of one extra window of receive
// latency per hop (a documented, mode-independent model semantic, not an
// approximation). Carrier sense is window-quantized the same way: a node
// senses only transmissions that started before the current window.
//
// # Byte-identical determinism contract
//
// For a fixed Config (including Seed) the final Digest is identical for
// the serial reference (Shards: 0, a single wheel doing full O(n) station
// scans) and any sharded run, regardless of shard count or goroutine
// interleaving. The load-bearing rules: all cross-shard effects flow
// through the sorted barrier list; per-cell tx indexes are read-only
// during phases and mutated only at integration in merged order; every
// random draw is a loraphy.Mix64 (SplitMix64) hash of (seed, purpose,
// node/pair id, counter) — there is no shared rand.Rand to race on
// ordering; and both eval paths share one linkLoss function so cached and
// recomputed budgets are bit-identical. The receivers of one frame may be
// dispatched in any order: a handler writes only its receiver's slots, and
// what the shard shares commutes (counter sums, an outbox sorted by a
// unique key, a delivery log sorted by its full key, packet slab indexes
// that are not digest material). Unlike airmedium, reception
// checks sensitivity before half-duplex so out-of-range stations land in
// the same loss bucket whether they were scanned individually (serial) or
// skipped in bulk (sharded).
package citysim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/loraphy"
)

// Frame sizes for the two telemetry-profile frame kinds. Fixed sizes keep
// airtimes constant, which gives the windowed synchronizer its minimum
// airtime bound without per-frame bookkeeping.
const (
	helloFrameBytes = 16
	dataFrameBytes  = 24
)

const noRoute = ^uint16(0) // hop-count sentinel: no usable route to a sink

// Bounds every program runs at one value (DESIGN.md decision 7). Sink
// routes not refreshed by a beacon expire after 3.5 HELLO periods, and
// the synchronization window is the minimum frame airtime — the
// conservative lookahead bound.
const (
	// queueCap bounds each node's forwarding queue; the oldest drops.
	queueCap = 8
	// ttlHops bounds forwarding depth.
	ttlHops = 32
	// nodesPerSink sizes the sink grid: max(1, Nodes/nodesPerSink) data
	// collection points, snapped to the nearest nodes.
	nodesPerSink = 640
	// slottedSlots is the "slotted" superframe slot count (slot = route
	// depth modulo slots).
	slottedSlots = 8
)

// Config describes one city simulation. The zero value of every field
// selects a sensible default; Nodes is required.
type Config struct {
	// Nodes is the station count (required).
	Nodes int
	// Strategy selects the forwarding strategy, mirroring the full-engine
	// strategy API (internal/forward):
	//
	//	""/"proactive": periodic HELLOs building Bellman-Ford sink trees
	//	                (the default; this path is byte-identical to a
	//	                build without the strategy field)
	//	"reactive":     solicitation-gated beacons — nodes with traffic
	//	                and no route flood a solicit, and only solicited
	//	                (or sink) nodes beacon
	//	"icn":          named-data pub-sub — nodes express interests in
	//	                one well-known content, sinks produce it, every
	//	                hop caches it (TTL-bounded) and aggregates
	//	                concurrent interests in a PIT
	//	"slotted":      proactive routing plus a TDMA gate: data transmits
	//	                only inside the node's depth-derived slot
	Strategy string
	// Shards selects the execution mode: 0 is the serial reference — one
	// event wheel and full O(n) station scans per transmission, the
	// design that caps internal/netsim at demo scale — and any k >= 1
	// runs k column-stripe shards over the cell index (clamped to the
	// grid's column count). All modes produce the same Digest.
	Shards int
	// Seed drives placement, jitter, backoff, shadowing, and erasures.
	Seed int64
	// HelloPeriod is the mean beacon interval (0 = 60s); DataPeriod the
	// mean telemetry generation interval per node (0 = 90s). Both get
	// +-1/8 period of per-node hash jitter.
	HelloPeriod time.Duration
	DataPeriod  time.Duration
	// ShadowSigmaDB adds per-link log-normal shadowing, truncated at
	// +-2 sigma so the cell size bound stays finite.
	ShadowSigmaDB float64
	// ExtraFrameLossRate injects i.i.d. per-(frame,receiver) erasures.
	ExtraFrameLossRate float64
}

// Stats is the merged outcome of a run. Every field except EventsFired,
// Wall, StateBytes, ShardBusy, and BarrierWait is identical across
// execution modes per Config.
type Stats struct {
	Nodes, Shards, Cells, Sinks int
	Windows, FastForwards       uint64

	// Radio-level outcomes, airmedium bucket semantics (see package doc
	// for the sensitivity-first ordering).
	FramesSent           uint64
	FramesDelivered      uint64
	LostBelowSensitivity uint64
	LostCollision        uint64
	LostHalfDuplex       uint64
	LostRandom           uint64
	HelloSkips           uint64
	AirtimeTotal         time.Duration

	// Application-level outcomes. In ICN mode Offered counts expressed
	// interests and Delivered counts satisfied ones.
	Offered    uint64 // telemetry readings generated
	Delivered  uint64 // readings arrived at a sink
	DropQueue  uint64
	DropTTL    uint64
	LatencySum time.Duration // sum over delivered readings

	// Strategy-specific outcomes (zero under the proactive default; only
	// folded into the digest in non-proactive modes, keeping the
	// proactive digest byte-identical).
	SolicitsSent       uint64 // reactive: solicit frames transmitted
	InterestsSent      uint64 // icn: interest frames transmitted
	InterestAggregated uint64 // icn: interests collapsed into a live PIT
	CacheHits          uint64 // icn: interests answered from a content store
	SlotDeferrals      uint64 // slotted: transmissions deferred to their slot

	// Machine/mode-dependent (excluded from the digest).
	EventsFired uint64
	Wall        time.Duration
	StateBytes  uint64
	// ShardBusy sums every shard's wall inside window commands, so
	// ShardBusy/Wall is the cores the executor kept busy; BarrierWait is
	// the time the calling goroutine waited for the other shards after
	// its own.
	ShardBusy   time.Duration
	BarrierWait time.Duration
}

// PDR returns the delivery ratio of offered telemetry.
func (s Stats) PDR() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Delivered) / float64(s.Offered)
}

// MeanLatency returns the mean end-to-end latency of delivered readings.
func (s Stats) MeanLatency() time.Duration {
	if s.Delivered == 0 {
		return 0
	}
	return s.LatencySum / time.Duration(s.Delivered)
}

// EventsPerSec returns fired scheduler events per wall second.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.EventsFired) / s.Wall.Seconds()
}

// resolved carries the validated, defaulted configuration plus every
// derived physical constant the hot paths need.
type resolved struct {
	Config
	params        loraphy.Params
	budget        loraphy.LinkBudget
	model         loraphy.LogDistance
	field         float64
	eirpDBm       float64 // tx power + both antenna gains
	maxLossDel    float64 // max path loss that still delivers
	maxLossRel    float64 // max radio-relevant loss (delivery or interference + shadow margin)
	noiseDBm      float64
	captureThDB   float64
	helloAirNs    int64
	dataAirNs     int64
	maxAirNs      int64
	winNs         int64
	helloNs       int64
	dataNs        int64
	routeTTLNs    int64
	csmaSlotNs    int64
	noRouteWaitNs int64

	// Strategy-mode constants (see engine.go for the handlers).
	strat        uint8
	slotLenNs    int64 // slotted: one TDMA slot
	slotPeriodNs int64 // slotted: the superframe
	solicitTTLNs int64 // reactive: how long a solicit licenses beacons
	relayJitNs   int64 // reactive/icn: flood-relay jitter window
	pitTTLNs     int64 // icn: pending-interest lifetime
	csTTLNs      int64 // icn: content-store entry freshness
}

// The city's fixed physical profile: loraphy's default radio parameters
// and link budget on a log-distance model with pathLossExponent, and a
// field sized for targetDegree.
const (
	// pathLossExponent is an urban canyon; the default suburban 2.7 gives
	// km-scale cells.
	pathLossExponent = 3.8
	// targetDegree is the mean number of neighbors within delivery range.
	targetDegree = 30
)

// Strategy codes for resolved.strat.
const (
	stratProactive uint8 = iota
	stratReactive
	stratICN
	stratSlotted
)

func (cfg Config) resolve() (resolved, error) {
	r := resolved{Config: cfg}
	if cfg.Nodes < 2 {
		return r, fmt.Errorf("citysim: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Shards < 0 {
		return r, fmt.Errorf("citysim: negative shard count %d", cfg.Shards)
	}
	if cfg.ExtraFrameLossRate < 0 || cfg.ExtraFrameLossRate >= 1 {
		return r, fmt.Errorf("citysim: ExtraFrameLossRate %v out of [0,1)", cfg.ExtraFrameLossRate)
	}
	if cfg.ShadowSigmaDB < 0 {
		return r, fmt.Errorf("citysim: negative ShadowSigmaDB %v", cfg.ShadowSigmaDB)
	}
	r.params = loraphy.DefaultParams()
	r.budget = loraphy.DefaultLinkBudget()
	r.model = loraphy.DefaultLogDistance()
	r.model.Exponent = pathLossExponent
	// Resolve the free-space reference loss once: PathLossDB(d0) is
	// ref + 10·n·log10(1), exactly ref, so every later PathLossDB returns
	// the same bits without recomputing it.
	r.model.ReferenceLossDB = r.model.PathLossDB(r.model.ReferenceMeters, r.params.FrequencyHz)

	helloAir, err := r.params.Airtime(helloFrameBytes)
	if err != nil {
		return r, fmt.Errorf("citysim: %w", err)
	}
	dataAir, err := r.params.Airtime(dataFrameBytes)
	if err != nil {
		return r, fmt.Errorf("citysim: %w", err)
	}
	r.helloAirNs = helloAir.Nanoseconds()
	r.dataAirNs = dataAir.Nanoseconds()
	r.maxAirNs = max(r.helloAirNs, r.dataAirNs)
	r.winNs = min(r.helloAirNs, r.dataAirNs)

	sens, err := r.params.SensitivityDBm()
	if err != nil {
		return r, fmt.Errorf("citysim: %w", err)
	}
	snrFloor, err := r.params.SpreadingFactor.SNRFloorDB()
	if err != nil {
		return r, fmt.Errorf("citysim: %w", err)
	}
	r.noiseDBm = r.params.NoiseFloorDBm()
	th, err := loraphy.CaptureThresholdDB(r.params.SpreadingFactor, r.params.SpreadingFactor)
	if err != nil {
		return r, fmt.Errorf("citysim: %w", err)
	}
	r.captureThDB = th
	r.eirpDBm = r.budget.RSSI(0)
	effSens := math.Max(sens, r.noiseDBm+snrFloor)
	r.maxLossDel = r.eirpDBm - effSens
	maxLossInterf := r.eirpDBm - (r.noiseDBm - 10)
	r.maxLossRel = math.Max(r.maxLossDel, maxLossInterf) + 2*cfg.ShadowSigmaDB
	if r.maxLossDel <= 0 {
		return r, fmt.Errorf("citysim: link budget closes at zero range")
	}

	// The square field grows with Nodes so the mean radio degree stays at
	// targetDegree.
	delRange := rangeAtLoss(r.model, r.params.FrequencyHz, r.maxLossDel)
	r.field = delRange * math.Sqrt(float64(cfg.Nodes)*math.Pi/targetDegree)

	if r.HelloPeriod == 0 {
		r.HelloPeriod = 60 * time.Second
	}
	if r.DataPeriod == 0 {
		r.DataPeriod = 90 * time.Second
	}
	if r.HelloPeriod <= 0 || r.DataPeriod <= 0 {
		return r, fmt.Errorf("citysim: periods must be positive")
	}
	r.helloNs = r.HelloPeriod.Nanoseconds()
	r.dataNs = r.DataPeriod.Nanoseconds()
	r.routeTTLNs = 3*r.helloNs + r.helloNs/2
	r.csmaSlotNs = r.helloAirNs
	r.noRouteWaitNs = r.helloNs / 2

	switch cfg.Strategy {
	case "", "proactive":
		r.strat = stratProactive
	case "reactive":
		r.strat = stratReactive
	case "icn":
		r.strat = stratICN
	case "slotted":
		r.strat = stratSlotted
	default:
		return r, fmt.Errorf("citysim: unknown strategy %q (want proactive, reactive, icn, or slotted)", cfg.Strategy)
	}
	// Four data airtimes per slot: the slot always fits a frame (no
	// livelock) with room for CSMA jitter.
	r.slotLenNs = 4 * r.dataAirNs
	r.slotPeriodNs = slottedSlots * r.slotLenNs
	r.solicitTTLNs = 2*r.helloNs + r.helloNs/2
	r.relayJitNs = 16 * r.csmaSlotNs
	r.pitTTLNs = r.dataNs / 2
	r.csTTLNs = r.routeTTLNs
	return r, nil
}

// rangeAtLoss inverts the monotone log-distance model: the largest
// distance whose base path loss stays within lossDB.
func rangeAtLoss(m loraphy.LogDistance, freqHz, lossDB float64) float64 {
	lo, hi := 1.0, 1.0
	for m.PathLossDB(hi, freqHz) <= lossDB && hi < 1e7 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.PathLossDB(mid, freqHz) <= lossDB {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Sim is one city simulation. Build with New, drive with Run, read with
// Stats and Digest. Not safe for concurrent use.
type Sim struct {
	r    resolved
	grid geo.CellGrid
	// fullScan marks the serial reference mode (Config.Shards == 0).
	fullScan bool
	nodes    nodeState
	// cellStart holds each cell's first slot, cells in column-major order
	// (key col*Rows + row), plus the node count: the slots of column col,
	// rows r0..r1, are [cellStart[col*Rows+r0], cellStart[col*Rows+r1+1]).
	cellStart []int32
	shards    []*shard
	// winTxs is the barrier-merged, globally sorted transmission list of
	// the current window, read-only during phase B.
	winTxs []txRec
	ran    bool
	stats  Stats
}

// New builds the simulation: placement, sink election, link slabs, and
// shard stripes. Memory and build time are O(Nodes * degree), never
// O(Nodes^2).
func New(cfg Config) (*Sim, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cellSide := rangeAtLoss(r.model, r.params.FrequencyHz, r.maxLossRel)
	grid, err := geo.NewCellGrid(0, 0, r.field, r.field, cellSide)
	if err != nil {
		return nil, fmt.Errorf("citysim: %w", err)
	}
	s := &Sim{r: r, grid: grid, fullScan: cfg.Shards == 0}

	topo, err := geo.RandomGeometric(cfg.Nodes, r.field, r.field, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("citysim: %w", err)
	}
	slotOf := s.buildNodes(topo)
	s.electSinks(slotOf)
	s.buildShards()
	if !s.fullScan {
		s.buildLinks()
	}
	s.scheduleInitialEvents(slotOf)
	return s, nil
}

// buildNodes stores the placement in space order and returns the id → slot
// map. Slots ascend by (cell column, cell row, id), so each column stripe's
// nodes are one slot range and each cell's nodes one run; nodes.id maps a
// slot back to its id, the node's name wherever its value is model
// material.
func (s *Sim) buildNodes(topo *geo.Topology) []int32 {
	g := &s.grid
	key := make([]int32, len(topo.Positions))
	s.cellStart = make([]int32, g.NumCells()+1)
	for i, p := range topo.Positions {
		col, row := g.ColRow(g.CellOf(p))
		key[i] = int32(col*g.Rows() + row)
		s.cellStart[key[i]+1]++
	}
	for k := 1; k < len(s.cellStart); k++ {
		s.cellStart[k] += s.cellStart[k-1]
	}
	// A counting sort: ids reach their cell's run in ascending order.
	next := slices.Clone(s.cellStart)
	slotOf := make([]int32, len(topo.Positions))
	ns := &s.nodes
	ns.alloc(s.r.Nodes)
	for i, p := range topo.Positions {
		slot := next[key[i]]
		next[key[i]]++
		slotOf[i] = slot
		ns.id[slot] = int32(i)
		ns.x[slot], ns.y[slot] = p.X, p.Y
		ns.cell[slot] = int32(g.CellOf(p))
	}
	return slotOf
}

// cellRun returns the slot range of the cells in column col, rows r0..r1.
func (s *Sim) cellRun(col, r0, r1 int) (lo, hi int32) {
	k := col * s.grid.Rows()
	return s.cellStart[k+r0], s.cellStart[k+r1+1]
}

// electSinks snaps a uniform sink grid to the nearest nodes: sinks are
// ordinary stations that terminate telemetry and beacon hop 0. It scans in
// id order, so a tie goes to the lower id.
func (s *Sim) electSinks(slotOf []int32) {
	k := max(1, s.r.Nodes/nodesPerSink)
	g := int(math.Ceil(math.Sqrt(float64(k))))
	placed := 0
	for gy := 0; gy < g && placed < k; gy++ {
		for gx := 0; gx < g && placed < k; gx++ {
			px := (float64(gx) + 0.5) * s.r.field / float64(g)
			py := (float64(gy) + 0.5) * s.r.field / float64(g)
			best, bestD := int32(-1), math.MaxFloat64
			for _, i := range slotOf {
				d := math.Hypot(s.nodes.x[i]-px, s.nodes.y[i]-py)
				if d < bestD {
					best, bestD = i, d
				}
			}
			if best >= 0 && !s.nodes.isSink[best] {
				s.nodes.isSink[best] = true
				s.nodes.hop[best] = 0
				s.stats.Sinks++
			}
			placed++
		}
	}
}

// buildShards partitions grid columns into contiguous stripes balanced by
// node count and creates the per-shard wheels. In space order a stripe's
// nodes are the slot range [lo, hi), and the ranges tile all nodes.
func (s *Sim) buildShards() {
	cols, rows := s.grid.Cols(), s.grid.Rows()
	nsh := s.r.Shards
	if s.fullScan {
		nsh = 1
	}
	if nsh > cols {
		nsh = cols
	}
	if nsh < 1 {
		nsh = 1
	}
	for col := 0; col < cols; col++ {
		// Open the next stripe when the nodes before this column pass the
		// proportional boundary, keeping stripes contiguous and non-empty.
		lo, hi := s.cellRun(col, 0, rows-1)
		if n := len(s.shards); n == 0 || n < nsh && int(lo) >= n*s.r.Nodes/nsh && col >= n {
			s.shards = append(s.shards, newShard(s, int32(n), col, lo))
		}
		sh := s.shards[len(s.shards)-1]
		sh.c1, sh.hi = col, hi
	}
	if !s.fullScan {
		for _, sh := range s.shards {
			sh.candOf = make([]int32, sh.hi-sh.lo)
			for i := range sh.candOf {
				sh.candOf[i] = -1
			}
		}
	}
	s.stats.Nodes = s.r.Nodes
	s.stats.Shards = len(s.shards)
	s.stats.Cells = s.grid.NumCells()
}

// shardOfNode returns the shard owning the node in slot i.
func (s *Sim) shardOfNode(i int32) *shard {
	k := 0
	for i >= s.shards[k].hi {
		k++
	}
	return s.shards[k]
}

// Run executes the simulation for d of virtual time (rounded up to whole
// synchronization windows). It may be called once.
func (s *Sim) Run(d time.Duration) error {
	if s.ran {
		return fmt.Errorf("citysim: Run called twice")
	}
	if d <= 0 {
		return fmt.Errorf("citysim: non-positive duration %v", d)
	}
	s.ran = true
	start := time.Now()
	s.runWindows(d.Nanoseconds())
	s.stats.Wall = time.Since(start)
	for _, sh := range s.shards {
		s.stats.EventsFired += sh.wheel.Fired()
		s.stats.ShardBusy += sh.busy
	}
	s.stats.StateBytes = s.stateBytes()
	return nil
}

// Stats returns the merged run outcome.
func (s *Sim) Stats() Stats {
	out := s.stats
	for _, sh := range s.shards {
		out.merge(&sh.stats)
	}
	return out
}

// merge adds src's outcome counters, the ones shards count, to dst.
func (dst *Stats) merge(src *Stats) {
	dst.FramesSent += src.FramesSent
	dst.FramesDelivered += src.FramesDelivered
	dst.LostBelowSensitivity += src.LostBelowSensitivity
	dst.LostCollision += src.LostCollision
	dst.LostHalfDuplex += src.LostHalfDuplex
	dst.LostRandom += src.LostRandom
	dst.HelloSkips += src.HelloSkips
	dst.AirtimeTotal += src.AirtimeTotal
	dst.Offered += src.Offered
	dst.Delivered += src.Delivered
	dst.DropQueue += src.DropQueue
	dst.DropTTL += src.DropTTL
	dst.LatencySum += src.LatencySum
	dst.SolicitsSent += src.SolicitsSent
	dst.InterestsSent += src.InterestsSent
	dst.InterestAggregated += src.InterestAggregated
	dst.CacheHits += src.CacheHits
	dst.SlotDeferrals += src.SlotDeferrals
}

// stateBytes is the resident engine footprint: every nodeState slab
// (routes, queues, strategy state, link slabs) and every shard's packet
// slab and candidate index, each by capacity, the bytes it holds.
// Reporting only — not digest material.
func (s *Sim) stateBytes() uint64 {
	var b uint64
	slabs := reflect.ValueOf(s.nodes)
	for i := 0; i < slabs.NumField(); i++ {
		f := slabs.Field(i)
		b += uint64(f.Cap()) * uint64(f.Type().Elem().Size())
	}
	for _, sh := range s.shards {
		b += uint64(cap(sh.pkts)) * uint64(reflect.TypeOf(pkt{}).Size())
		b += uint64(cap(sh.candOf)) * uint64(reflect.TypeOf(int32(0)).Size())
	}
	return b
}

// Delivery is one reading's arrival at a sink, exported from the
// per-shard delivery logs in the digest's deterministic global order.
type Delivery struct {
	// At and Born are virtual-time offsets from the run start.
	At, Born time.Duration
	// Sink and Origin are node ids (placement indices), not storage slots.
	Sink, Origin int
}

// Deliveries returns the full delivery log sorted into its global order
// (arrival time, then sink, then origin, by id) — the per-shard append
// order is a mode-dependent interleaving, this ordering is not.
func (s *Sim) Deliveries() []Delivery {
	var recs []deliveryRec
	for _, sh := range s.shards {
		for _, r := range sh.deliveries {
			r.sink, r.origin = s.nodes.id[r.sink], s.nodes.id[r.origin]
			recs = append(recs, r)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.atNs != b.atNs {
			return a.atNs < b.atNs
		}
		if a.sink != b.sink {
			return a.sink < b.sink
		}
		if a.origin != b.origin {
			return a.origin < b.origin
		}
		return a.bornNs < b.bornNs
	})
	out := make([]Delivery, len(recs))
	for i, r := range recs {
		out[i] = Delivery{
			At:     time.Duration(r.atNs),
			Born:   time.Duration(r.bornNs),
			Sink:   int(r.sink),
			Origin: int(r.origin),
		}
	}
	return out
}
