package icn

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/loraphy"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// The unit tests drive ICN nodes over a loopback bus with a programmable
// link topology, isolating the forwarding plane (PIT, content store,
// flood control) from the PHY model, which internal/netsim's strategy
// tests exercise against the real medium.

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

type bus struct {
	sched *simtime.Scheduler
	envs  []*testEnv
	// drop decides per-link frame loss; nil means every node hears every
	// other.
	drop func(from, to packet.Address) bool
}

type testEnv struct {
	b    *bus
	node *Node
	addr packet.Address
	rng  *rand.Rand
	msgs []core.AppMessage
	phy  loraphy.Params
}

func (e *testEnv) Now() time.Time { return e.b.sched.Now() }

func (e *testEnv) Schedule(d time.Duration, fn func()) func() {
	h := e.b.sched.MustAfter(d, fn)
	return func() { e.b.sched.Cancel(h) }
}

func (e *testEnv) Transmit(frame []byte) (time.Duration, error) {
	airtime := e.phy.MustAirtime(len(frame))
	data := append([]byte(nil), frame...)
	e.b.sched.MustAfter(airtime, func() {
		for _, other := range e.b.envs {
			if other == e {
				continue
			}
			if e.b.drop != nil && e.b.drop(e.addr, other.addr) {
				continue
			}
			other.node.HandleFrame(data, core.RxInfo{RSSIDBm: -80, SNRDB: 10})
		}
		e.node.HandleTxDone()
	})
	return airtime, nil
}

func (e *testEnv) ChannelBusy() (bool, error)     { return false, nil }
func (e *testEnv) Deliver(msg core.AppMessage)    { e.msgs = append(e.msgs, msg) }
func (e *testEnv) StreamDone(ev core.StreamEvent) {}
func (e *testEnv) Rand() float64                  { return e.rng.Float64() }

var _ core.Env = (*testEnv)(nil)

// spec is one bus node: its address and, for a producer, its content.
type spec struct {
	Address packet.Address
	Produce func(name string) []byte
}

// newBus builds a started node per spec on a shared medium.
func newBus(t *testing.T, specs ...spec) *bus {
	t.Helper()
	b := &bus{sched: simtime.NewScheduler(t0)}
	for i, sp := range specs {
		env := &testEnv{b: b, addr: sp.Address, rng: rand.New(rand.NewSource(int64(i) + 1)), phy: loraphy.DefaultParams()}
		n, err := NewNode(core.Config{Address: sp.Address}, sp.Produce, env)
		if err != nil {
			t.Fatal(err)
		}
		env.node = n
		b.envs = append(b.envs, env)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func (b *bus) env(a packet.Address) *testEnv {
	for _, e := range b.envs {
		if e.addr == a {
			return e
		}
	}
	return nil
}

// chainDrop restricts the bus to a line topology.
func chainDrop(chain ...packet.Address) func(from, to packet.Address) bool {
	idx := make(map[packet.Address]int, len(chain))
	for i, a := range chain {
		idx[a] = i
	}
	return func(from, to packet.Address) bool {
		fi, ok1 := idx[from]
		ti, ok2 := idx[to]
		if !ok1 || !ok2 {
			return true
		}
		return fi-ti > 1 || ti-fi > 1
	}
}

func counter(t *testing.T, n *Node, name string) float64 {
	t.Helper()
	v, ok := n.Metrics().Snapshot()[name]
	if !ok {
		t.Fatalf("counter %q not registered", name)
	}
	return v
}

func TestConfigDefaults(t *testing.T) {
	b := newBus(t, spec{Address: 1})
	if b.env(1).node.cfg.Phy == (loraphy.Params{}) {
		t.Error("Phy not defaulted")
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(core.Config{Address: 1}, nil, nil); err == nil {
		t.Error("nil env accepted")
	}
	b := &bus{sched: simtime.NewScheduler(t0)}
	env := &testEnv{b: b, rng: rand.New(rand.NewSource(1)), phy: loraphy.DefaultParams()}
	if _, err := NewNode(core.Config{Address: packet.Broadcast}, nil, env); err == nil {
		t.Error("broadcast address accepted")
	}
}

func TestExpressValidation(t *testing.T) {
	b := newBus(t, spec{Address: 0x0001})
	n := b.env(0x0001).node
	if err := n.Express(""); !errors.Is(err, ErrBadName) {
		t.Errorf("empty name: %v", err)
	}
	if err := n.Express(strings.Repeat("x", packet.MaxNameLen+1)); !errors.Is(err, ErrBadName) {
		t.Errorf("oversized name: %v", err)
	}
	n.Stop()
	if err := n.Express("ok"); !errors.Is(err, ErrStopped) {
		t.Errorf("stopped Express: %v", err)
	}
	if err := n.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("restarting a stopped node: %v", err)
	}
}

func TestProducerRoundTripAndLocalCache(t *testing.T) {
	producer := spec{Address: 0x0001, Produce: func(name string) []byte {
		if name == "sensor/1" {
			return []byte("21.5C")
		}
		return nil
	}}
	consumer := spec{Address: 0x0002}
	b := newBus(t, producer, consumer)
	cons := b.env(0x0002)

	if err := cons.node.Express("sensor/1"); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(10 * time.Second)
	if len(cons.msgs) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(cons.msgs))
	}
	got := cons.msgs[0]
	if got.From != 0x0001 {
		t.Errorf("From = %v, want the producer", got.From)
	}
	if want := []byte("sensor/1\x0021.5C"); !bytes.Equal(got.Payload, want) {
		t.Errorf("payload = %q, want %q", got.Payload, want)
	}
	if counter(t, b.env(0x0001).node, "icn.data.produced") == 0 {
		t.Error("producer never counted a production")
	}

	// The answer was cached on the consumer: a re-expression is a local
	// cache hit, delivered synchronously with the saved airtime credited.
	if err := cons.node.Express("sensor/1"); err != nil {
		t.Fatal(err)
	}
	if len(cons.msgs) != 2 {
		t.Fatalf("local cache hit did not deliver synchronously: %d deliveries", len(cons.msgs))
	}
	if counter(t, cons.node, "icn.cs.hit") != 1 {
		t.Errorf("cs.hit = %v, want 1", counter(t, cons.node, "icn.cs.hit"))
	}
	if counter(t, cons.node, "icn.airtime.saved_ms") == 0 {
		t.Error("cache hit credited no saved airtime")
	}
}

func TestIntermediateCacheAnswers(t *testing.T) {
	// Line topology consumer - mid(2) - producer(3), with consumer 1 in
	// range for the first read and consumer 4 for the second. The first
	// read fills the mid node's store; consumer 4 was out of earshot, so
	// its store is cold and its read of the same name must be answered by
	// the mid node's cache instead of the producer.
	produced := 0
	producer := spec{Address: 0x0003, Produce: func(name string) []byte {
		produced++
		return []byte("v:" + name)
	}}
	b := newBus(t, spec{Address: 0x0001}, spec{Address: 0x0002}, producer, spec{Address: 0x0004})

	for i, cons := range []*testEnv{b.env(0x0001), b.env(0x0004)} {
		b.drop = chainDrop(cons.addr, 0x0002, 0x0003)
		if err := cons.node.Express("city/7/air"); err != nil {
			t.Fatal(err)
		}
		b.sched.RunFor(30 * time.Second)
		if len(cons.msgs) != 1 {
			t.Fatalf("read %d: %d deliveries, want 1", i+1, len(cons.msgs))
		}
		// Both deliveries name the true producer even when served from cache.
		if cons.msgs[0].From != 0x0003 {
			t.Errorf("read %d: answer From = %v, want the producer", i+1, cons.msgs[0].From)
		}
	}
	if produced != 1 {
		t.Errorf("producer answered %d interests, want only the first", produced)
	}
	midNode := b.env(0x0002).node
	if counter(t, midNode, "icn.cs.hit") == 0 {
		t.Error("mid node never answered from its content store")
	}
	if counter(t, midNode, "icn.airtime.saved_ms") == 0 {
		t.Error("mid-cache hit credited no saved airtime")
	}
}

func TestInterestAggregation(t *testing.T) {
	// An isolated consumer with nobody to answer: the second expression of
	// a pending name aggregates instead of re-flooding.
	b := newBus(t, spec{Address: 0x0001})
	n := b.env(0x0001).node
	if err := n.Express("demo/1"); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(5 * time.Second)
	txAfterFirst := counter(t, n, "tx.frames")
	if txAfterFirst == 0 {
		t.Fatal("first expression transmitted no interest")
	}
	if err := n.Express("demo/1"); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(5 * time.Second)
	if got := counter(t, n, "icn.interest.aggregated"); got != 1 {
		t.Errorf("aggregated = %v, want 1", got)
	}
	if got := counter(t, n, "tx.frames"); got != txAfterFirst {
		t.Errorf("aggregation re-flooded: tx %v -> %v", txAfterFirst, got)
	}
	if got := counter(t, n, "icn.interest.expressed"); got != 2 {
		t.Errorf("expressed = %v, want 2", got)
	}
	// Past pitTimeout the pending entry is forgotten: the next expression
	// floods again.
	b.sched.RunFor(pitTimeout)
	if err := n.Express("demo/1"); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(5 * time.Second)
	if got := counter(t, n, "icn.interest.aggregated"); got != 1 {
		t.Errorf("aggregated against an expired entry: %v, want 1", got)
	}
	if got := counter(t, n, "tx.frames"); got <= txAfterFirst {
		t.Errorf("expression after pitTimeout did not re-flood: tx still %v", got)
	}
}

// interestFrame marshals one interest as a peer would send it.
func interestFrame(t *testing.T, src packet.Address, name string, nonce uint16, hops uint8) []byte {
	t.Helper()
	payload := append(packet.Breadcrumb{ID: nonce, Hops: hops, PrevHop: src}.Append(nil), name...)
	frame, err := packet.Marshal(&packet.Packet{
		Dst: packet.Broadcast, Src: src, Type: packet.TypeInterest, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestInterestTTLAndDedup(t *testing.T) {
	b := newBus(t, spec{Address: 0x0001})
	n := b.env(0x0001).node

	// One hop short of the limit the interest is relayed; at the limit it
	// is dropped under the canonical reason.
	n.HandleFrame(interestFrame(t, 0x0009, "far/name", 6, maxHops-2), core.RxInfo{})
	if got := counter(t, n, "drop."+forward.DropTTL); got != 0 {
		t.Errorf("drop.ttl = %v after %d hops, want 0", got, maxHops-2)
	}
	n.HandleFrame(interestFrame(t, 0x0009, "farther/name", 7, maxHops-1), core.RxInfo{})
	if got := counter(t, n, "drop."+forward.DropTTL); got != 1 {
		t.Errorf("drop.ttl = %v after %d hops, want 1", got, maxHops-1)
	}

	// The same (origin, nonce) seen again is a flood duplicate.
	n.HandleFrame(interestFrame(t, 0x0009, "near/name", 8, 0), core.RxInfo{})
	n.HandleFrame(interestFrame(t, 0x0009, "near/name", 8, 0), core.RxInfo{})
	if got := counter(t, n, "icn.interest.duplicate"); got != 1 {
		t.Errorf("interest.duplicate = %v, want 1", got)
	}
}

func TestCorruptAndForeignFrames(t *testing.T) {
	b := newBus(t, spec{Address: 0x0001})
	n := b.env(0x0001).node

	short, err := packet.Marshal(&packet.Packet{
		Dst: packet.Broadcast, Src: 0x0002, Type: packet.TypeInterest, Payload: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(short, core.RxInfo{})

	// A named-data frame whose name length overruns the payload.
	bad, err := packet.Marshal(&packet.Packet{
		Dst: 0x0001, Src: 0x0002, Type: packet.TypeNamedData,
		Payload: []byte{0x00, 0x02, 1, 200, 'x'},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(bad, core.RxInfo{})
	if got := counter(t, n, "rx.corrupt"); got != 2 {
		t.Errorf("rx.corrupt = %v, want 2", got)
	}

	// Frames of other strategies are ignored, not errors.
	hello, err := packet.Marshal(&packet.Packet{
		Dst: packet.Broadcast, Src: 0x0002, Type: packet.TypeHello,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(hello, core.RxInfo{})
	if got := counter(t, n, "rx.ignored"); got != 1 {
		t.Errorf("rx.ignored = %v, want 1", got)
	}
}

func TestContentStoreLRUEviction(t *testing.T) {
	b := newBus(t, spec{Address: 0x0001})
	n := b.env(0x0001).node

	// Two entries of just over half the store each: the second evicts
	// the first.
	const over = contentStoreBytes/2 + 1
	n.cacheContent("a", bytes.Repeat([]byte{'a'}, over), 0x0002, 1)
	n.cacheContent("b", bytes.Repeat([]byte{'b'}, over), 0x0002, 1)
	if _, ok := n.cs["a"]; ok {
		t.Error("LRU victim still cached")
	}
	if _, ok := n.cs["b"]; !ok {
		t.Error("fresh entry evicted")
	}
	if got := counter(t, n, "icn.cs.evict"); got != 1 {
		t.Errorf("cs.evict = %v, want 1", got)
	}
	if n.csBytes > contentStoreBytes {
		t.Errorf("store over budget: %d bytes", n.csBytes)
	}

	// Refreshing an entry adjusts the byte account instead of duplicating.
	n.cacheContent("b", []byte("bb"), 0x0003, 2)
	if n.csBytes != 2 || n.cs["b"].producer != 0x0003 || n.cs["b"].hops != 2 {
		t.Errorf("refresh: bytes=%d entry=%+v", n.csBytes, n.cs["b"])
	}

	// Content larger than the whole budget is never cached.
	n.cacheContent("huge", bytes.Repeat([]byte{'h'}, contentStoreBytes+1), 0x0002, 1)
	if _, ok := n.cs["huge"]; ok {
		t.Error("over-budget content cached")
	}
}

func TestStrategySurface(t *testing.T) {
	b := newBus(t, spec{Address: 0x0001, Produce: func(string) []byte { return []byte("v") }})
	n := b.env(0x0001).node
	// Send maps the generic surface onto Express (dst advisory): the
	// producer answers itself without touching the air.
	if err := n.Send(0x00FF, []byte("any/name")); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, n, "app.delivered"); got != 1 {
		t.Errorf("Send did not deliver the self-produced content: %v", got)
	}
}
