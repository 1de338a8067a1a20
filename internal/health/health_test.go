package health

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func addr(i int) packet.Address { return packet.Address(i) }

// chain builds a healthy linear topology 1 -> 2 -> ... -> n with correct
// next-hop routes in both directions.
func chain(n int) []NodeStatus {
	nodes := make([]NodeStatus, n)
	for i := range nodes {
		nodes[i] = NodeStatus{Addr: addr(i + 1), Alive: true}
		for j := range nodes {
			if j == i {
				continue
			}
			via := addr(i + 2)
			if j < i {
				via = addr(i)
			}
			nodes[i].Routes = append(nodes[i].Routes, Route{Dst: addr(j + 1), Via: via})
		}
	}
	return nodes
}

func TestRouteFaultsClean(t *testing.T) {
	if vs := RouteFaults(chain(4)); len(vs) != 0 {
		t.Fatalf("healthy chain flagged: %v", vs)
	}
}

func TestRouteFaultsLoop(t *testing.T) {
	// 1 routes 3 via 2, 2 routes 3 via 1: a two-node loop.
	nodes := []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(2)}}},
		{Addr: addr(2), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(1)}}},
		{Addr: addr(3), Alive: true},
	}
	vs := RouteFaults(nodes)
	var loops int
	for _, v := range vs {
		if v.Kind == KindLoop {
			loops++
			if !strings.Contains(v.Detail, "revisits node") {
				t.Fatalf("loop detail = %q", v.Detail)
			}
		}
	}
	if loops == 0 {
		t.Fatalf("loop not detected: %v", vs)
	}
}

func TestRouteFaultsBlackhole(t *testing.T) {
	// Dead next hop.
	nodes := []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(2)}}},
		{Addr: addr(2), Alive: false},
		{Addr: addr(3), Alive: true},
	}
	vs := RouteFaults(nodes)
	if len(vs) != 1 || vs[0].Kind != KindBlackhole || vs[0].Node != addr(1) ||
		!strings.Contains(vs[0].Detail, "via dead node") {
		t.Fatalf("dead-hop blackhole: %v", vs)
	}

	// Unknown next hop.
	nodes = []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(9)}}},
		{Addr: addr(3), Alive: true},
	}
	vs = RouteFaults(nodes)
	if len(vs) != 1 || vs[0].Kind != KindBlackhole ||
		!strings.Contains(vs[0].Detail, "via unknown address") {
		t.Fatalf("unknown-hop blackhole: %v", vs)
	}
}

// poller wraps a mutable snapshot as a Source.
type poller struct{ nodes []NodeStatus }

func (p *poller) source() []NodeStatus { return p.nodes }

func stats(tx, rx, replay, util, deferrals float64) map[string]float64 {
	return map[string]float64{
		"tx.frames": tx, "rx.frames": rx, "sec.drop.replay": replay,
		"dutycycle.utilization": util, "dutycycle.deferrals": deferrals,
	}
}

func TestSilentDetector(t *testing.T) {
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Stats: stats(10, 10, 0, 0, 0)},
		{Addr: addr(2), Alive: true, Stats: stats(5, 5, 0, 0, 0)},
	}}
	m := New(Config{}, p.source)

	// The baseline poll, then silentPolls-1 silent ones, raise nothing.
	now := t0
	for i := 0; i < silentPolls; i++ {
		now = now.Add(time.Minute)
		// Node 2 makes progress every poll; node 1 never does.
		p.nodes[1].Stats = stats(float64(6+i), 5, 0, 0, 0)
		if vs := m.Poll(now); len(vs) != 0 {
			t.Fatalf("poll %d flagged early: %v", i, vs)
		}
	}
	now = now.Add(time.Minute)
	p.nodes[1].Stats = stats(10, 5, 0, 0, 0)
	vs := m.Poll(now)
	if len(vs) != 1 || vs[0].Kind != KindSilent || vs[0].Node != addr(1) {
		t.Fatalf("silent node not flagged: %v", vs)
	}
	if s := m.scores[addr(1)]; s != 100-scorePenalty[KindSilent] {
		t.Fatalf("silent score = %d", s)
	}
	if s := m.scores[addr(2)]; s != 100 {
		t.Fatalf("healthy score = %d", s)
	}

	// Progress resets the streak.
	now = now.Add(time.Minute)
	p.nodes[0].Stats = stats(11, 10, 0, 0, 0)
	if vs := m.Poll(now); len(vs) != 0 {
		t.Fatalf("progress did not clear silence: %v", vs)
	}
	if s := m.scores[addr(1)]; s != 100 {
		t.Fatalf("score did not recover: %d", s)
	}
}

func TestDutyStuckDetector(t *testing.T) {
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Stats: stats(1, 1, 0, 0.99, 10)},
	}}
	m := New(Config{}, p.source)

	now := t0
	m.Poll(now) // baseline
	for i := 1; i <= dutyStuckPolls; i++ {
		now = now.Add(time.Minute)
		p.nodes[0].Stats = stats(float64(1+i), float64(1+i), 0, 0.99, float64(10+10*i))
		vs := m.Poll(now)
		if i < dutyStuckPolls && len(vs) != 0 {
			t.Fatalf("saturated poll %d of %d flagged early: %v", i, dutyStuckPolls, vs)
		}
		if i == dutyStuckPolls && (len(vs) != 1 || vs[0].Kind != KindDutyStuck) {
			t.Fatalf("stuck duty budget not flagged after %d polls: %v", dutyStuckPolls, vs)
		}
	}

	// Utilization dropping clears the streak.
	p.nodes[0].Stats = stats(9, 9, 0, 0.30, float64(10+10*dutyStuckPolls))
	if vs := m.Poll(now.Add(time.Minute)); len(vs) != 0 {
		t.Fatalf("recovered budget still flagged: %v", vs)
	}
}

func TestReplayDetector(t *testing.T) {
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Stats: stats(1, 1, 0, 0, 0)},
	}}
	var seen []Violation
	m := New(Config{}, p.source)
	m.Subscribe(func(v Violation) { seen = append(seen, v) })

	m.Poll(t0)
	p.nodes[0].Stats = stats(2, 2, replayBurst-1, 0, 0) // one under the burst
	if vs := m.Poll(t0.Add(time.Minute)); len(vs) != 0 {
		t.Fatalf("sub-burst replays flagged: %v", vs)
	}
	p.nodes[0].Stats = stats(3, 3, 2*replayBurst-1, 0, 0) // +replayBurst in one poll
	vs := m.Poll(t0.Add(2 * time.Minute))
	if len(vs) != 1 || vs[0].Kind != KindReplay {
		t.Fatalf("replay burst not flagged: %v", vs)
	}
	if len(seen) != 1 || seen[0].Kind != KindReplay {
		t.Fatalf("subscriber saw %v", seen)
	}
}

func TestScoringAndVerdict(t *testing.T) {
	// A blackhole (40) on node 1 -> min score 60 -> "degraded".
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(9)}}},
		{Addr: addr(3), Alive: true},
	}}
	m := New(Config{}, p.source)
	m.Poll(t0)

	v := m.Verdict()
	if v["status"] != "degraded" {
		t.Fatalf("status = %v", v["status"])
	}
	if v["polls"] != uint64(1) || v["violations"] != uint64(1) {
		t.Fatalf("verdict counters: %+v", v)
	}
	scores := v["scores"].(map[string]int)
	if scores[addr(1).String()] != 60 || scores[addr(3).String()] != 100 {
		t.Fatalf("scores = %v", scores)
	}
	if len(m.Violations()) != 1 {
		t.Fatalf("violation tail: %v", m.Violations())
	}

	snap := m.Metrics().Snapshot()
	if snap["health.violation.blackhole"] != 1 || snap["health.mesh.score.min"] != 60 {
		t.Fatalf("gauges: min=%v blackhole=%v", snap["health.mesh.score.min"], snap["health.violation.blackhole"])
	}
	if snap["health.nodes.alive"] != 2 || snap["health.nodes.total"] != 2 {
		t.Fatalf("node gauges: %v/%v", snap["health.nodes.alive"], snap["health.nodes.total"])
	}
}

func TestPenaltyOncePerPollAndClamp(t *testing.T) {
	// Node 1 blackholes toward three destinations: the blackhole penalty
	// still applies once, and scores never go below zero.
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{
			{Dst: addr(2), Via: addr(9)}, {Dst: addr(3), Via: addr(9)}, {Dst: addr(4), Via: addr(9)},
		}},
		{Addr: addr(2), Alive: true},
		{Addr: addr(3), Alive: true},
		{Addr: addr(4), Alive: true},
	}}
	m := New(Config{}, p.source)
	vs := m.Poll(t0)
	if len(vs) != 3 {
		t.Fatalf("want 3 blackhole violations, got %v", vs)
	}
	if s := m.scores[addr(1)]; s != 100-scorePenalty[KindBlackhole] {
		t.Fatalf("repeated kind penalized more than once: %d", s)
	}
}

func TestViolationTracerEmission(t *testing.T) {
	var sink bytes.Buffer
	tr := trace.New(16, 0)
	tr.SetSink(&sink)
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(2), Via: addr(9)}}},
		{Addr: addr(2), Alive: true},
	}}
	m := New(Config{Tracer: tr}, p.source)
	m.Poll(t0)

	evs, err := trace.ReadJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, ev := range evs {
		if ev.Kind == trace.KindHealth {
			found = true
			if ev.Seg != KindBlackhole || !strings.Contains(ev.Detail, "health.violation:") {
				t.Fatalf("health event = %+v", ev)
			}
		}
	}
	if !found {
		t.Fatalf("no health.violation event in stream: %v", evs)
	}
}

func TestDeadNodeHistoryDropped(t *testing.T) {
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Stats: stats(1, 1, 0, 0, 0)},
	}}
	m := New(Config{}, p.source)
	now := t0
	poll := func() []Violation {
		now = now.Add(time.Minute)
		return m.Poll(now)
	}
	poll() // baseline
	for i := 1; i < silentPolls; i++ {
		poll() // silent streak one short of a violation
	}

	// The node dies, then comes back (a restart): the streak must not
	// survive the outage.
	p.nodes[0].Alive = false
	poll()
	p.nodes[0].Alive = true
	poll() // fresh baseline
	if vs := poll(); len(vs) != 0 {
		t.Fatalf("restart inherited the silent streak: %v", vs)
	}
}

// TestViolationSeqMonotonic is the regression contract for
// Violation.Seq: every violation the monitor emits carries a strictly
// increasing sequence number with no gaps, across polls and detector
// kinds — what lets a consumer (the control plane) distinguish "no
// violations" from "violations I never saw".
func TestViolationSeqMonotonic(t *testing.T) {
	// A loop and a blackhole every poll, plus a replay burst on node 4:
	// several violations per poll, from both detector families.
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(2)}}},
		{Addr: addr(2), Alive: true, Routes: []Route{{Dst: addr(3), Via: addr(1)}}},
		{Addr: addr(3), Alive: false},
		{Addr: addr(4), Alive: true, Stats: stats(1, 1, 0, 0, 0)},
	}}
	m := New(Config{}, p.source)

	var seen []uint64
	m.Subscribe(func(v Violation) { seen = append(seen, v.Seq) })

	now := t0
	for i := 1; i <= 3; i++ {
		now = now.Add(time.Minute)
		p.nodes[3].Stats = stats(float64(i+1), 1, float64(i*10), 0, 0)
		for _, v := range m.Poll(now) {
			if v.Seq == 0 {
				t.Fatalf("poll %d: violation without a sequence number: %v", i, v)
			}
			if !v.At.Equal(now) {
				t.Fatalf("poll %d: violation not stamped with the poll time", i)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("subscriber saw no violations")
	}
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("violation %d carried seq %d: want a gapless 1..n sequence (got %v)", i, s, seen)
		}
	}
}

// TestSubscribersFireInOrder verifies subscriber fan-out: every
// subscriber fires once per violation, and for each violation they fire
// in registration order.
func TestSubscribersFireInOrder(t *testing.T) {
	p := &poller{nodes: []NodeStatus{
		{Addr: addr(1), Alive: true, Routes: []Route{{Dst: addr(2), Via: addr(9)}}},
		{Addr: addr(2), Alive: true},
	}}
	type call struct {
		sub int
		seq uint64
	}
	var calls []call
	m := New(Config{}, p.source)
	for i := 0; i < 3; i++ {
		m.Subscribe(func(v Violation) { calls = append(calls, call{i, v.Seq}) })
	}

	var seqs []uint64
	for i := 1; i <= 2; i++ {
		for _, v := range m.Poll(t0.Add(time.Duration(i) * time.Minute)) {
			seqs = append(seqs, v.Seq)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("two polls detected %d violations, want one blackhole each", len(seqs))
	}
	var want []call
	for _, seq := range seqs {
		for i := 0; i < 3; i++ {
			want = append(want, call{i, seq})
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("subscriber calls %v, want %v", calls, want)
	}
}
