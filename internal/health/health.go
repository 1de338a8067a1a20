// Package health is the mesh's always-on self-diagnosis: the invariant
// checks that previously existed only as test-time assertions
// (netsim.CheckInvariants / CheckRoutingLoops) promoted into a runtime
// monitor. A Monitor periodically walks every node's routing table and
// counter deltas to detect
//
//   - routing loops (a next-hop walk revisits a node),
//   - blackholes (a route's next hop is dead or unknown),
//   - silent nodes (no tx/rx progress across consecutive polls),
//   - stuck duty-cycle budgets (utilization pinned at the cap while the
//     queue keeps deferring), and
//   - replay-counter anomalies (bursts of sec.drop.replay — a replay
//     attack or a counter-desynchronized peer).
//
// Each detection is a Violation: scored into a per-node 0–100 health
// score, exported as health.* gauges, surfaced through the /healthz
// verdict of the live runtimes, and emitted as a structured
// trace.KindHealth JSONL event — the trigger feed a self-healing control
// plane (ROADMAP E16) consumes.
//
// The monitor is host-driven: it never schedules itself. The simulator
// polls it on the virtual clock, the live runtimes on a wall ticker, so
// the same detectors run deterministically under test and continuously
// in production.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Route is one usable routing-table row as the monitor sees it.
type Route struct {
	// Dst is the destination address.
	Dst packet.Address
	// Via is the next hop toward Dst.
	Via packet.Address
}

// NodeStatus is one node's state snapshot, produced by a Source per poll.
type NodeStatus struct {
	// Addr is the node's mesh address.
	Addr packet.Address
	// Alive reports whether the node is currently running (not crashed,
	// killed, or unreachable).
	Alive bool
	// Routes are the node's usable (non-poisoned) routes. Empty for
	// dead nodes.
	Routes []Route
	// Stats is the node's metric snapshot (counter and gauge values);
	// the delta detectors key on tx.frames, rx.frames,
	// dutycycle.utilization, dutycycle.deferrals, and sec.drop.replay.
	// Nil disables the delta detectors for this node.
	Stats map[string]float64
}

// Source snapshots the mesh for one poll. It is called from Poll's
// goroutine; hosts make it safe against their own concurrency.
type Source func() []NodeStatus

// Violation is one detected health fault.
type Violation struct {
	// Seq is a monotonic sequence number (1, 2, 3, ...) stamped by the
	// monitor, so a consumer can detect dropped or reordered violations
	// across a sink restart. It restarts at 1 with a fresh Monitor.
	Seq uint64
	// At is the poll time the violation was observed.
	At time.Time
	// Node is the node the violation is attributed to.
	Node packet.Address
	// Kind classifies the fault: loop, blackhole, silent, duty_stuck,
	// or replay.
	Kind string
	// Dst, when non-zero, is the destination whose path the violation
	// concerns (loop and blackhole kinds) — the address a recovery
	// playbook needs to purge the faulty route.
	Dst packet.Address
	// Via, when non-zero, is the faulty next hop (blackhole kind).
	Via packet.Address
	// Detail is the human-readable specifics.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s@%v: %s", v.Kind, v.Node, v.Detail)
}

// Violation kinds.
const (
	KindLoop      = "loop"
	KindBlackhole = "blackhole"
	KindSilent    = "silent"
	KindDutyStuck = "duty_stuck"
	KindReplay    = "replay"
	// KindLatencyBound flags a flow delivery that exceeded the declared
	// per-flow latency bound — the real-time invariant the slotted
	// forwarding strategy promises (see internal/slotted).
	KindLatencyBound = "latency_bound"
)

// scorePenalty maps a violation kind to its health-score cost. A node
// accumulates each kind's penalty at most once per poll.
var scorePenalty = map[string]int{
	KindLoop:         40,
	KindBlackhole:    40,
	KindSilent:       50,
	KindDutyStuck:    30,
	KindReplay:       25,
	KindLatencyBound: 30,
}

// FlowSample is one end-to-end application delivery as observed by the
// host, fed to the latency-bound invariant.
type FlowSample struct {
	// Src is the flow's originator, Dst the delivering node.
	Src, Dst packet.Address
	// Latency is send-to-delivery time.
	Latency time.Duration
}

// Config tunes the monitor.
type Config struct {
	// FlowLatencyBound, when positive, arms the per-flow latency-bound
	// invariant: every FlowSample whose Latency exceeds the bound is a
	// latency_bound violation. Zero disables the detector.
	FlowLatencyBound time.Duration
	// Flows, when set, returns the flow deliveries observed since the
	// previous poll (the host drains its sample buffer here). Called
	// from Poll's goroutine; nil disables the latency-bound detector.
	Flows func() []FlowSample
	// Tracer, when set, receives every violation as a structured
	// trace.KindHealth event (the violation kind rides Event.Seg).
	Tracer *trace.Tracer
}

// The delta detectors' thresholds.
const (
	// silentPolls is how many consecutive polls without any tx or rx
	// progress mark a node silent.
	silentPolls = 3
	// dutyStuckPolls is how many consecutive saturated polls (with
	// deferrals still accruing) mark the budget stuck.
	dutyStuckPolls = 2
	// dutyStuckUtil is the utilization at or above which the duty budget
	// counts as saturated.
	dutyStuckUtil = 0.95
	// replayBurst is the sec.drop.replay increase within one poll that
	// flags a replay anomaly.
	replayBurst = 5
)

// history carries one node's state between polls for the delta detectors.
type history struct {
	seen      bool
	txrx      float64
	replays   float64
	silentN   int
	dutyN     int
	deferrals float64
}

// Monitor runs the detectors over successive Source snapshots. Safe for
// concurrent use (Poll, Verdict, and the accessors may race freely).
type Monitor struct {
	cfg Config
	src Source

	mu         sync.Mutex
	reg        *metrics.Registry
	hist       map[packet.Address]*history
	scores     map[packet.Address]int
	recent     []Violation // bounded tail of detections
	total      uint64
	polls      uint64
	seq        uint64 // monotonic Violation.Seq source
	lastPoll   time.Time
	lastStatus string
	subs       []func(Violation)
}

// recentCap bounds the violation tail kept for Verdict.
const recentCap = 256

// New builds a monitor over src.
func New(cfg Config, src Source) *Monitor {
	m := &Monitor{
		cfg:        cfg,
		src:        src,
		reg:        metrics.NewRegistry(),
		hist:       make(map[packet.Address]*history),
		scores:     make(map[packet.Address]int),
		lastStatus: "unknown",
	}
	// Pre-register the stable schema so a scrape before the first poll
	// sees zeros, not absence.
	m.reg.Counter("health.polls")
	m.reg.Counter("health.violations")
	for _, k := range []string{KindLoop, KindBlackhole, KindSilent, KindDutyStuck, KindReplay, KindLatencyBound} {
		m.reg.Counter("health.violation." + k)
	}
	m.reg.Gauge("health.mesh.score.min")
	m.reg.Gauge("health.mesh.score.avg")
	m.reg.Gauge("health.nodes.alive")
	m.reg.Gauge("health.nodes.total")
	return m
}

// Metrics exposes the monitor's health.* instruments for aggregation.
func (m *Monitor) Metrics() *metrics.Registry { return m.reg }

// Subscribe registers fn to observe every violation as it is detected
// (in subscription order), called from Poll's goroutine. This is the one
// attachment point for violation consumers — notably the internal/control
// reconciler.
func (m *Monitor) Subscribe(fn func(Violation)) {
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

// Poll snapshots the mesh, runs every detector, updates scores and
// gauges, and returns the violations detected this round.
func (m *Monitor) Poll(now time.Time) []Violation {
	nodes := m.src()
	var vs []Violation
	vs = append(vs, RouteFaults(nodes)...)
	vs = append(vs, m.latencyFaults()...)

	m.mu.Lock()
	vs = append(vs, m.deltaDetectors(nodes)...)
	for i := range vs {
		m.seq++
		vs[i].Seq = m.seq
		vs[i].At = now
	}
	m.score(now, nodes, vs)
	tracer := m.cfg.Tracer
	// Subscribe only appends, so the slice read under the lock is a
	// stable snapshot.
	subs := m.subs
	m.mu.Unlock()

	for _, v := range vs {
		if tracer.Enabled() {
			tracer.EmitSeg(now, v.Node.String(), trace.KindHealth, 0, v.Kind, 0,
				"health.violation: "+v.Detail)
		}
		for _, fn := range subs {
			fn(v)
		}
	}
	return vs
}

// latencyFaults drains the host's flow-delivery samples and flags every
// one exceeding the declared per-flow latency bound. The violation is
// attributed to the flow's originator (whose traffic missed its
// deadline), with Dst recording the delivering node.
func (m *Monitor) latencyFaults() []Violation {
	if m.cfg.FlowLatencyBound <= 0 || m.cfg.Flows == nil {
		return nil
	}
	var vs []Violation
	for _, f := range m.cfg.Flows() {
		if f.Latency <= m.cfg.FlowLatencyBound {
			continue
		}
		vs = append(vs, Violation{Node: f.Src, Kind: KindLatencyBound, Dst: f.Dst,
			Detail: fmt.Sprintf("flow %v -> %v delivered in %v, bound %v",
				f.Src, f.Dst, f.Latency, m.cfg.FlowLatencyBound)})
	}
	return vs
}

// deltaDetectors runs the counter-delta checks (silent, duty-stuck,
// replay) against the previous poll's history. Called under mu.
func (m *Monitor) deltaDetectors(nodes []NodeStatus) []Violation {
	var vs []Violation
	for _, n := range nodes {
		if !n.Alive || n.Stats == nil {
			// A dead node's engine is gone; its silence is expected and
			// its routes are judged by the blackhole walk on its peers.
			delete(m.hist, n.Addr)
			continue
		}
		h := m.hist[n.Addr]
		if h == nil {
			h = &history{}
			m.hist[n.Addr] = h
		}
		txrx := n.Stats["tx.frames"] + n.Stats["rx.frames"]
		replays := n.Stats["sec.drop.replay"]
		util := n.Stats["dutycycle.utilization"]
		deferrals := n.Stats["dutycycle.deferrals"]
		if h.seen {
			if txrx == h.txrx {
				h.silentN++
				if h.silentN >= silentPolls {
					vs = append(vs, Violation{Node: n.Addr, Kind: KindSilent,
						Detail: fmt.Sprintf("node %v: no tx/rx progress for %d polls", n.Addr, h.silentN)})
				}
			} else {
				h.silentN = 0
			}
			if util >= dutyStuckUtil && deferrals > h.deferrals {
				h.dutyN++
				if h.dutyN >= dutyStuckPolls {
					vs = append(vs, Violation{Node: n.Addr, Kind: KindDutyStuck,
						Detail: fmt.Sprintf("node %v: duty budget saturated (util %.2f) with deferrals accruing for %d polls", n.Addr, util, h.dutyN)})
				}
			} else {
				h.dutyN = 0
			}
			if d := replays - h.replays; d >= replayBurst {
				vs = append(vs, Violation{Node: n.Addr, Kind: KindReplay,
					Detail: fmt.Sprintf("node %v: %d replayed frames rejected in one poll", n.Addr, int(d))})
			}
		}
		h.seen = true
		h.txrx = txrx
		h.replays = replays
		h.deferrals = deferrals
	}
	return vs
}

// score recomputes per-node and mesh scores from this poll's violations
// and refreshes the gauges. Called under mu.
func (m *Monitor) score(now time.Time, nodes []NodeStatus, vs []Violation) {
	m.polls++
	m.lastPoll = now
	m.reg.Counter("health.polls").Inc()
	penalized := make(map[packet.Address]map[string]bool)
	for _, v := range vs {
		m.total++
		m.reg.Counter("health.violations").Inc()
		m.reg.Counter("health.violation." + v.Kind).Inc()
		if penalized[v.Node] == nil {
			penalized[v.Node] = make(map[string]bool)
		}
		penalized[v.Node][v.Kind] = true
		m.recent = append(m.recent, v)
	}
	if len(m.recent) > recentCap {
		m.recent = append([]Violation(nil), m.recent[len(m.recent)-recentCap:]...)
	}

	m.scores = make(map[packet.Address]int, len(nodes))
	alive, minScore, sum := 0, 100, 0
	for _, n := range nodes {
		if !n.Alive {
			continue
		}
		alive++
		score := 100
		for kind := range penalized[n.Addr] {
			score -= scorePenalty[kind]
		}
		if score < 0 {
			score = 0
		}
		m.scores[n.Addr] = score
		m.reg.Gauge("health.node." + n.Addr.String() + ".score").Set(float64(score))
		if score < minScore {
			minScore = score
		}
		sum += score
	}
	avg := 100.0
	if alive > 0 {
		avg = float64(sum) / float64(alive)
	} else {
		minScore = 0
	}
	m.reg.Gauge("health.mesh.score.min").Set(float64(minScore))
	m.reg.Gauge("health.mesh.score.avg").Set(avg)
	m.reg.Gauge("health.nodes.alive").Set(float64(alive))
	m.reg.Gauge("health.nodes.total").Set(float64(len(nodes)))
	switch {
	case minScore >= 80:
		m.lastStatus = "ok"
	case minScore >= 50:
		m.lastStatus = "degraded"
	default:
		m.lastStatus = "critical"
	}
}

// Violations returns the retained violation tail, oldest first.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.recent...)
}

// Verdict summarizes mesh health for a /healthz endpoint: an overall
// status ("ok" ≥ 80, "degraded" ≥ 50, else "critical"; "unknown" before
// the first poll), per-node scores, and the most recent violations.
func (m *Monitor) Verdict() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	scores := make(map[string]int, len(m.scores))
	addrs := make([]packet.Address, 0, len(m.scores))
	for a := range m.scores {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		scores[a.String()] = m.scores[a]
	}
	tail := m.recent
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	recent := make([]string, 0, len(tail))
	for _, v := range tail {
		recent = append(recent, v.String())
	}
	v := map[string]any{
		"status":     m.lastStatus,
		"polls":      m.polls,
		"violations": m.total,
		"scores":     scores,
		"recent":     recent,
	}
	if !m.lastPoll.IsZero() {
		v["last_poll"] = m.lastPoll
	}
	return v
}

// RouteFaults walks every (source, destination) pair's next-hop chain
// across the snapshot and returns the loop and blackhole violations — the
// runtime promotion of the invariant netsim.CheckRoutingLoops asserts
// after convergence (which now delegates here). Routing only settles
// between convergence windows; callers poll at a cadence coarser than
// route churn or expect transient findings mid-churn.
func RouteFaults(nodes []NodeStatus) []Violation {
	byAddr := make(map[packet.Address]*NodeStatus, len(nodes))
	routes := make(map[packet.Address]map[packet.Address]packet.Address, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		byAddr[n.Addr] = n
		r := make(map[packet.Address]packet.Address, len(n.Routes))
		for _, e := range n.Routes {
			r[e.Dst] = e.Via
		}
		routes[n.Addr] = r
	}
	var vs []Violation
	for _, src := range nodes {
		if !src.Alive {
			continue
		}
		for _, dst := range nodes {
			if dst.Addr == src.Addr || !dst.Alive {
				continue
			}
			visited := make(map[packet.Address]bool)
			cur := src.Addr
			for cur != dst.Addr {
				if visited[cur] {
					vs = append(vs, Violation{Node: src.Addr, Kind: KindLoop, Dst: dst.Addr,
						Detail: fmt.Sprintf("routing loop: %v -> %v revisits node %v", src.Addr, dst.Addr, cur)})
					break
				}
				visited[cur] = true
				via, ok := routes[cur][dst.Addr]
				if !ok {
					break // no route: not a loop (coverage is convergence's job)
				}
				next, known := byAddr[via]
				if !known {
					vs = append(vs, Violation{Node: cur, Kind: KindBlackhole, Dst: dst.Addr, Via: via,
						Detail: fmt.Sprintf("blackhole: %v routes %v via unknown address %v", cur, dst.Addr, via)})
					break
				}
				if !next.Alive {
					vs = append(vs, Violation{Node: cur, Kind: KindBlackhole, Dst: dst.Addr, Via: via,
						Detail: fmt.Sprintf("blackhole: %v routes %v via dead node %v", cur, dst.Addr, via)})
					break
				}
				cur = via
			}
		}
	}
	return vs
}
