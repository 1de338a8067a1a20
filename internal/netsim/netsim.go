// Package netsim assembles complete mesh simulations: it places protocol
// engines (one forward.Strategy per node) on the simulated LoRa medium at
// topology-defined positions, drives them through the discrete-event
// scheduler, and offers failure injection, mobility, convergence probes,
// traffic generation, and metric aggregation — the machinery every
// experiment in the evaluation is built from.
//
// A strategy is its name: Config{Topology, Protocol, Seed} runs any
// forward.Kind (plus ICNProduce — application data — under ICN). Each
// strategy's own parameters are constants in its package, node 0 is the
// slotted sink and the ICN workloads' producer, and a slotted run arms
// the health monitor with the schedule's latency bound, so no program
// carries a per-strategy configuration block.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/airmedium"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/icn"
	"repro/internal/meshsec"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/slotted"
	"repro/internal/trace"
)

// Epoch is the simulation start time. A fixed epoch keeps runs
// reproducible and timestamps readable.
var Epoch = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

// baseAddress is node 0's address; node i gets baseAddress+i.
const baseAddress packet.Address = 0x0001

// Config describes a simulation.
type Config struct {
	// Topology gives node positions; required.
	Topology *geo.Topology
	// Medium tunes the channel model (path loss, shadowing, capture).
	Medium airmedium.Config
	// Protocol selects the engine; empty means forward.KindProactive.
	Protocol forward.Kind
	// Node is the LoRaMesher configuration template; the address field
	// is assigned per node.
	Node core.Config
	// NodeOverride, when set, customizes node i's configuration after
	// the template (e.g. give node 0 the sink role).
	NodeOverride func(i int, cfg core.Config) core.Config
	// ICNProduce, when set under forward.KindICN, makes node i a producer: it is
	// called with the node index and the requested content name and
	// returns the content (nil = node i does not produce that name).
	ICNProduce func(i int, name string) []byte
	// SecKey, when set, secures the mesh (forward.KindProactive only): every node
	// gets a meshsec link derived from this network key. The link lives
	// on the Handle, not the engine, so crash/restart cycles keep the
	// node's frame counter monotonic and never reuse a nonce.
	SecKey *meshsec.Key
	// Seed drives all simulation randomness (jitter, traffic).
	Seed int64
	// TraceCapacity switches the narrative trace on when positive, and
	// SpanCapacity hop-level span capture: every engine (and an attached
	// gateway) emits enqueue/queue-wait/airtime/rx/forward/deliver/drop
	// segments as KindSpan events (see internal/span). Both classes go
	// to Sim.Tracer, whose ring retains the most recent
	// TraceCapacity+SpanCapacity events and whose sink, if set, sees
	// all of them. A class that is off emits nothing, so switching one
	// on leaves the other's stream byte-identical.
	TraceCapacity int
	SpanCapacity  int
	// HealthInterval arms the always-on mesh health monitor when
	// positive: every interval of virtual time the monitor walks routing
	// tables and counter deltas for loops, blackholes, silent nodes,
	// stuck duty budgets, and replay anomalies (see internal/health).
	// Violations emit KindHealth trace events; scores and counts ride
	// AggregateMetrics under health.*. Under forward.KindSlotted the
	// monitor is always on (slottedHealthInterval when this is zero) and
	// every StartFlow delivery slower than slotted.LatencyBound is a
	// latency_bound violation — a bound nobody checks is not a bound.
	HealthInterval time.Duration
}

// slottedHealthInterval is the health poll a slotted run gets when
// Config.HealthInterval does not name one.
const slottedHealthInterval = time.Minute

// Handle is one node in the simulation.
type Handle struct {
	// Index is the node's topology index.
	Index int
	// Addr is the node's mesh address.
	Addr packet.Address
	// Station is the node's medium endpoint.
	Station airmedium.StationID
	// Proto is the protocol engine.
	Proto forward.Strategy
	// Mesher is the engine as a *core.Node: the engine itself under
	// forward.KindProactive, the embedded core engine under forward.KindSlotted, nil for
	// the table-free strategies (flooding, reactive, ICN).
	Mesher *core.Node
	// ICN is the engine as an *icn.Node, nil except under forward.KindICN.
	ICN *icn.Node
	// Msgs collects application deliveries.
	Msgs []core.AppMessage
	// StreamEvents collects reliable-transfer outcomes.
	StreamEvents []core.StreamEvent
	// OnMessage, when set, observes each delivery as it happens.
	OnMessage func(core.AppMessage)
	// OnStreamDone, when set, observes each stream outcome.
	OnStreamDone func(core.StreamEvent)
	// Sec is the node's security link when Config.SecKey is set. It
	// outlives engine rebuilds (see Config.SecKey).
	Sec *meshsec.Link

	killed bool
	// down marks a fault-plan crash: the engine is stopped and the radio
	// off, but — unlike killed — the node may restart cold later.
	down bool
	// hung marks a wedged engine (Sim.Hang): powered and apparently up,
	// but making no progress — the silent-node failure mode. Cleared by
	// any rebuild: a power-cycle or a crash/restart.
	hung bool
	// sfOverride, when nonzero, is the spreading factor a control-plane
	// reconfiguration pinned for this node; every engine rebuild keeps
	// it.
	sfOverride int
	// lastRebootSeq is the highest reboot-command seq the host has
	// honored; stale re-deliveries of it are acked without power-cycling
	// again (the host outlives the engine, so this survives reboots).
	lastRebootSeq uint32
	// sleepArmed records that a control-plane sleep schedule is already
	// running (StartSleepCycle cannot be re-phased once armed).
	sleepArmed bool
	env        *nodeEnv
	// addrStr and prefix cache Addr's rendered forms ("0001" and
	// "node.0001."), computed once at handle creation: tracer emits and
	// metric aggregation would otherwise re-run fmt per node per call.
	addrStr string
	prefix  string
	// helloScale is the fault plan's clock-skew factor for this node's
	// HELLO timer (0 or 1 = nominal).
	helloScale float64
	// retired accumulates the metrics of engines discarded by
	// crash/restart cycles, so network totals survive restarts.
	retired *metrics.Registry
	// airtimeRetired is the airtime those discarded engines consumed;
	// the medium's station airtime keeps counting across restarts.
	airtimeRetired time.Duration
	// sleepAccum totals time spent with the receiver off (sleep cycles),
	// feeding the energy report.
	sleepAccum time.Duration
}

// retire folds the current engine's metrics and airtime into the
// handle's retired accumulators before the engine is discarded.
func (h *Handle) retire() {
	if h.retired == nil {
		h.retired = metrics.NewRegistry()
	}
	h.retired.Merge("", h.Proto.Metrics())
	if h.Mesher != nil {
		h.airtimeRetired += h.Mesher.AirtimeUsed()
	}
}

// Sim is a running simulation.
type Sim struct {
	Cfg    Config
	Sched  *simtime.Scheduler
	Medium *airmedium.Medium
	// Tracer is the run's one recorder: the narrative when
	// Config.TraceCapacity is positive, hop-span segments when
	// Config.SpanCapacity is; nil when both are zero.
	Tracer *trace.Tracer
	// Health is the mesh health monitor, polled on the virtual clock; nil
	// unless Config.HealthInterval is positive.
	Health *health.Monitor

	handles []*Handle
	rng     *rand.Rand
	// reg holds simulation-level instruments that no single node can
	// compute, e.g. end-to-end delivery latency (send-to-deliver in
	// virtual time, observed by StartFlow).
	reg *metrics.Registry
	// stationIdx maps medium stations back to node indices for the
	// fault injector's per-link evaluation.
	stationIdx map[airmedium.StationID]int
	// injector evaluates the applied fault plan; nil without one.
	injector *faults.Injector
	// latencyBound is the per-flow delivery deadline the health monitor
	// enforces: slotted.LatencyBound under forward.KindSlotted, else zero.
	latencyBound time.Duration
	// flowSamples buffers StartFlow deliveries for that invariant; drained
	// every poll. Only filled when latencyBound is positive.
	flowSamples []health.FlowSample
	// control is the attached self-healing controller; nil without one.
	control *control.Controller
}

// New builds and starts a simulation: all nodes are placed, started, and
// ready; no virtual time has elapsed yet.
func New(cfg Config) (*Sim, error) {
	if cfg.Topology == nil || cfg.Topology.N() == 0 {
		return nil, fmt.Errorf("netsim: config needs a non-empty topology")
	}
	if cfg.Protocol == "" {
		cfg.Protocol = forward.KindProactive
	}
	last := int(baseAddress) + cfg.Topology.N() - 1
	if last >= int(packet.Broadcast) {
		return nil, fmt.Errorf("netsim: address range ends at %04X, collides with broadcast", last)
	}
	if cfg.Medium.Seed == 0 {
		cfg.Medium.Seed = cfg.Seed
	}
	if cfg.SecKey != nil && cfg.Protocol != forward.KindProactive {
		return nil, fmt.Errorf("netsim: security requires the %s strategy", forward.KindProactive)
	}
	// The one place a strategy implies anything beyond its engine: the
	// slotted schedule promises a latency bound, and a monitor checks it.
	var latencyBound time.Duration
	if cfg.Protocol == forward.KindSlotted {
		latencyBound = slotted.LatencyBound
		if cfg.HealthInterval <= 0 {
			cfg.HealthInterval = slottedHealthInterval
		}
	}

	sched := simtime.NewScheduler(Epoch)
	medium, err := airmedium.New(sched, cfg.Medium)
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	s := &Sim{
		Cfg:        cfg,
		Sched:      sched,
		Medium:     medium,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		reg:        metrics.NewRegistry(),
		stationIdx: make(map[airmedium.StationID]int),

		latencyBound: latencyBound,
	}
	if cfg.TraceCapacity > 0 || cfg.SpanCapacity > 0 {
		s.Tracer = trace.New(cfg.TraceCapacity, cfg.SpanCapacity)
	}

	// Every Link hears the one medium, which hands a transmission to its
	// listeners back to back, so one memo lets them share its verification.
	memo := new(meshsec.Memo)
	for i, pos := range cfg.Topology.Positions {
		addr := baseAddress + packet.Address(i)
		h := &Handle{Index: i, Addr: addr}
		h.addrStr = addr.String()
		h.prefix = "node." + h.addrStr + "."
		if cfg.SecKey != nil {
			h.Sec = meshsec.NewLink(*cfg.SecKey, addr)
			h.Sec.ShareMemo(memo)
		}
		env := &nodeEnv{sim: s, h: h, rng: rand.New(rand.NewSource(cfg.Seed ^ int64(i+1)*0x9e3779b9))}
		h.env = env

		station, err := medium.AddStation(pos, env)
		if err != nil {
			return nil, fmt.Errorf("netsim: node %d: %w", i, err)
		}
		h.Station = station
		s.stationIdx[station] = i
		s.handles = append(s.handles, h)
	}
	// Engines boot only after every station exists, so first beacons
	// reach all neighbors.
	for _, h := range s.handles {
		if err := s.rebuild(h); err != nil {
			return nil, err
		}
	}
	if cfg.HealthInterval > 0 {
		hc := health.Config{Tracer: s.Tracer}
		if latencyBound > 0 {
			hc.FlowLatencyBound = latencyBound
			hc.Flows = s.drainFlowSamples
		}
		s.Health = health.New(hc, s.healthSource)
		var tick func()
		tick = func() {
			s.Health.Poll(s.Sched.Now())
			s.Sched.MustAfter(cfg.HealthInterval, tick)
		}
		s.Sched.MustAfter(cfg.HealthInterval, tick)
	}
	return s, nil
}

// drainFlowSamples hands the buffered StartFlow deliveries to the health
// monitor's latency-bound invariant and resets the buffer.
func (s *Sim) drainFlowSamples() []health.FlowSample {
	out := s.flowSamples
	s.flowSamples = nil
	return out
}

// healthSource snapshots every node for the health monitor: liveness,
// usable routes, and the metric values the delta detectors key on.
func (s *Sim) healthSource() []health.NodeStatus {
	out := make([]health.NodeStatus, 0, len(s.handles))
	for _, h := range s.handles {
		st := health.NodeStatus{Addr: h.Addr, Alive: !h.killed && !h.down}
		if st.Alive {
			st.Stats = h.Proto.Metrics().Snapshot()
			if h.Mesher != nil {
				for _, e := range h.Mesher.Table().Entries() {
					if e.Poisoned() {
						continue
					}
					st.Routes = append(st.Routes, health.Route{Dst: e.Addr, Via: e.Via})
				}
			}
		}
		out = append(out, st)
	}
	return out
}

// N returns the number of nodes.
func (s *Sim) N() int { return len(s.handles) }

// Handle returns node i.
func (s *Sim) Handle(i int) *Handle { return s.handles[i] }

// ByAddr returns the node with the given address, or nil.
func (s *Sim) ByAddr(a packet.Address) *Handle {
	i := int(a) - int(baseAddress)
	if i < 0 || i >= len(s.handles) {
		return nil
	}
	return s.handles[i]
}

// Run advances the simulation by d.
func (s *Sim) Run(d time.Duration) { s.Sched.RunFor(d) }

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.Sched.Now() }

// EventsFired returns the total scheduler events executed so far — the
// throughput numerator experiments report as events/sec.
func (s *Sim) EventsFired() uint64 { return s.Sched.Fired() }

// Elapsed returns virtual time since the simulation start.
func (s *Sim) Elapsed() time.Duration { return s.Sched.Now().Sub(Epoch) }

// RunUntil steps the simulation by step until cond holds or max elapses.
// It returns the virtual time spent in this call and whether cond held.
func (s *Sim) RunUntil(cond func() bool, step, max time.Duration) (time.Duration, bool) {
	start := s.Sched.Now()
	for {
		if cond() {
			return s.Sched.Now().Sub(start), true
		}
		if s.Sched.Now().Sub(start) >= max {
			return s.Sched.Now().Sub(start), false
		}
		s.Run(step)
	}
}

// Kill permanently removes node i: the engine stops and the station falls
// silent (failure injection).
func (s *Sim) Kill(i int) error {
	if i < 0 || i >= len(s.handles) {
		return fmt.Errorf("netsim: kill: node %d out of range", i)
	}
	h := s.handles[i]
	if h.killed {
		return nil
	}
	h.killed = true
	h.Proto.Stop()
	if err := s.Medium.Remove(h.Station); err != nil {
		return fmt.Errorf("netsim: kill node %d: %w", i, err)
	}
	s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindFailure, "node killed")
	return nil
}

// Converged reports whether every live routing node has a usable route
// to every other live node (forward.KindProactive and forward.KindSlotted — the strategies
// with a distance-vector table). For the table-free strategies it is
// trivially true.
func (s *Sim) Converged() bool {
	if s.Cfg.Protocol != forward.KindProactive && s.Cfg.Protocol != forward.KindSlotted {
		return true
	}
	for _, a := range s.handles {
		if a.killed || a.down {
			continue
		}
		for _, b := range s.handles {
			if b.killed || b.down || a == b {
				continue
			}
			if _, ok := a.Mesher.Table().NextHop(b.Addr); !ok {
				return false
			}
		}
	}
	return true
}

// TimeToConvergence runs the simulation until Converged (checking every
// step) and returns the elapsed virtual time, or false if max elapsed
// first.
func (s *Sim) TimeToConvergence(step, max time.Duration) (time.Duration, bool) {
	return s.RunUntil(s.Converged, step, max)
}

// Metrics returns the simulation-level registry (end-to-end latency and
// flow counters that no single node can observe).
func (s *Sim) Metrics() *metrics.Registry { return s.reg }

// AggregateMetrics merges every node's registry under "node.<addr>.",
// network-wide totals under "total.", and the simulation-level registry
// under "sim.".
func (s *Sim) AggregateMetrics() *metrics.Registry {
	agg := metrics.NewRegistry()
	for _, h := range s.handles {
		agg.Merge(h.prefix, h.Proto.Metrics())
		agg.Merge("total.", h.Proto.Metrics())
		if h.retired != nil {
			// Engines discarded by crash/restart (or clock-skew rebuild)
			// still count toward the node's and the network's totals.
			agg.Merge(h.prefix, h.retired)
			agg.Merge("total.", h.retired)
		}
	}
	agg.Merge("sim.", s.reg)
	if s.control != nil {
		// Controller instruments are already namespaced ctl.*.
		agg.Merge("", s.control.Metrics())
	}
	if s.Health != nil {
		// Health instruments are already namespaced health.*; merge them
		// unprefixed so dashboards see the same names the live runtimes
		// export.
		agg.Merge("", s.Health.Metrics())
	}
	return agg
}

// TotalAirtime sums transmit airtime across all stations.
func (s *Sim) TotalAirtime() time.Duration {
	var total time.Duration
	for _, h := range s.handles {
		at, err := s.Medium.StationAirtime(h.Station)
		if err == nil {
			total += at
		}
	}
	return total
}

// StartSleepCycle puts node i on a periodic sleep schedule: awake (radio
// listening) for awakeFor, then asleep (receiver off) for sleepFor,
// repeating. The node still wakes its radio to transmit — the classic
// sleepy end-device pattern — but misses anything sent to it while
// asleep, so routers should not sleep (experiment X2 quantifies both).
func (s *Sim) StartSleepCycle(i int, awakeFor, sleepFor time.Duration) error {
	if i < 0 || i >= len(s.handles) {
		return fmt.Errorf("netsim: sleep: node %d out of range", i)
	}
	if awakeFor <= 0 || sleepFor <= 0 {
		return fmt.Errorf("netsim: sleep phases must be positive")
	}
	h := s.handles[i]
	var wake, sleep func()
	sleep = func() {
		if h.killed {
			return
		}
		if err := s.Medium.SetListening(h.Station, false); err != nil {
			return
		}
		s.Sched.MustAfter(sleepFor, wake)
	}
	wake = func() {
		if h.killed {
			return
		}
		h.sleepAccum += sleepFor
		// A crashed node's radio stays off until it restarts; the cycle
		// itself keeps its phase.
		if !h.down {
			if err := s.Medium.SetListening(h.Station, true); err != nil {
				return
			}
		}
		s.Sched.MustAfter(awakeFor, sleep)
	}
	s.Sched.MustAfter(awakeFor, sleep)
	return nil
}

// StartMobility steps every live node's position through the model every
// interval. Route churn then follows from beacons refreshing or expiring,
// exactly as with physical movement.
func (s *Sim) StartMobility(model *geo.RandomWaypoint, interval time.Duration) error {
	if model == nil {
		return fmt.Errorf("netsim: nil mobility model")
	}
	if interval <= 0 {
		return fmt.Errorf("netsim: mobility interval must be positive")
	}
	var tick func()
	tick = func() {
		for _, h := range s.handles {
			if h.killed {
				continue
			}
			cur, err := s.Medium.Position(h.Station)
			if err != nil {
				continue
			}
			next := model.Step(h.Index, cur, interval)
			if err := s.Medium.SetPosition(h.Station, next); err == nil && next != cur {
				s.Tracer.Emit(s.Sched.Now(), h.addrStr, trace.KindRoute,
					"moved to %v", next)
			}
		}
		s.Sched.MustAfter(interval, tick)
	}
	s.Sched.MustAfter(interval, tick)
	return nil
}

// Partition severs every link between the two node-index groups, leaving
// intra-group links intact. Overlapping groups are an error.
func (s *Sim) Partition(groupA, groupB []int) error {
	return s.setPartition(groupA, groupB, true)
}

// Heal restores every link between the two groups.
func (s *Sim) Heal(groupA, groupB []int) error {
	return s.setPartition(groupA, groupB, false)
}

func (s *Sim) setPartition(groupA, groupB []int, blocked bool) error {
	inA := make(map[int]bool, len(groupA))
	for _, i := range groupA {
		if i < 0 || i >= len(s.handles) {
			return fmt.Errorf("netsim: partition: node %d out of range", i)
		}
		inA[i] = true
	}
	for _, j := range groupB {
		if j < 0 || j >= len(s.handles) {
			return fmt.Errorf("netsim: partition: node %d out of range", j)
		}
		if inA[j] {
			return fmt.Errorf("netsim: partition: node %d in both groups", j)
		}
	}
	for _, i := range groupA {
		for _, j := range groupB {
			if err := s.Medium.SetLinkBlocked(s.handles[i].Station, s.handles[j].Station, blocked); err != nil {
				return fmt.Errorf("netsim: partition: %w", err)
			}
		}
	}
	verb := "healed"
	if blocked {
		verb = "partitioned"
	}
	s.Tracer.Emit(s.Sched.Now(), "sim", trace.KindFailure, "%s groups %v | %v", verb, groupA, groupB)
	return nil
}
