package baseline

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loraphy"
	"repro/internal/packet"
	"repro/internal/simtime"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

// floodBus is a loopback medium for flooding nodes with a per-link drop
// function, mirroring the core package's test harness.
type floodBus struct {
	sched *simtime.Scheduler
	envs  []*floodEnv
	drop  func(from, to packet.Address) bool
}

type floodEnv struct {
	b        *floodBus
	node     *Node
	addr     packet.Address
	rng      *rand.Rand
	msgs     []core.AppMessage
	txActive bool
}

func (e *floodEnv) Now() time.Time { return e.b.sched.Now() }

func (e *floodEnv) Schedule(d time.Duration, fn func()) func() {
	h := e.b.sched.MustAfter(d, fn)
	return func() { e.b.sched.Cancel(h) }
}

func (e *floodEnv) Transmit(frame []byte) (time.Duration, error) {
	airtime := loraphy.DefaultParams().MustAirtime(len(frame))
	data := append([]byte(nil), frame...)
	e.txActive = true
	e.b.sched.MustAfter(airtime, func() {
		e.txActive = false
		for _, other := range e.b.envs {
			if other == e || other.txActive {
				continue
			}
			if e.b.drop != nil && e.b.drop(e.addr, other.addr) {
				continue
			}
			other.node.HandleFrame(data, core.RxInfo{})
		}
		e.node.HandleTxDone()
	})
	return airtime, nil
}

func (e *floodEnv) ChannelBusy() (bool, error)  { return false, nil }
func (e *floodEnv) Deliver(msg core.AppMessage) { e.msgs = append(e.msgs, msg) }
func (e *floodEnv) StreamDone(core.StreamEvent) {}
func (e *floodEnv) Rand() float64               { return e.rng.Float64() }

var _ core.Env = (*floodEnv)(nil)

func newFloodBus(t *testing.T, addrs ...packet.Address) *floodBus {
	t.Helper()
	b := &floodBus{sched: simtime.NewScheduler(t0)}
	for i, a := range addrs {
		env := &floodEnv{b: b, addr: a, rng: rand.New(rand.NewSource(int64(i) + 1))}
		n, err := NewNode(a, env)
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

func (b *floodBus) env(a packet.Address) *floodEnv {
	for _, e := range b.envs {
		if e.addr == a {
			return e
		}
	}
	return nil
}

func chainDrop(chain []packet.Address) func(from, to packet.Address) bool {
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
		d := fi - ti
		return d != 1 && d != -1
	}
}

func TestFloodReachesMultiHopDestination(t *testing.T) {
	chain := []packet.Address{1, 2, 3, 4}
	b := newFloodBus(t, chain...)
	b.drop = chainDrop(chain)
	if err := b.env(1).node.Send(4, []byte("flooded")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	msgs := b.env(4).msgs
	if len(msgs) != 1 || string(msgs[0].Payload) != "flooded" || msgs[0].From != 1 {
		t.Fatalf("destination messages = %+v", msgs)
	}
	// Intermediates forwarded but did not deliver a unicast.
	if len(b.env(2).msgs)+len(b.env(3).msgs) != 0 {
		t.Error("intermediate node delivered a unicast flood")
	}
	if b.env(2).node.Metrics().Counter("fwd.frames").Value() == 0 {
		t.Error("intermediate did not rebroadcast")
	}
}

func TestFloodBroadcastDeliversEverywhere(t *testing.T) {
	chain := []packet.Address{1, 2, 3, 4, 5}
	b := newFloodBus(t, chain...)
	b.drop = chainDrop(chain)
	if err := b.env(1).node.Send(packet.Broadcast, []byte("all")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	for _, a := range chain[1:] {
		if len(b.env(a).msgs) != 1 {
			t.Errorf("node %v got %d broadcast messages, want 1", a, len(b.env(a).msgs))
		}
	}
}

func TestFloodDuplicateSuppression(t *testing.T) {
	// Full connectivity, 4 nodes: every node hears every rebroadcast but
	// must deliver and forward each flood only once.
	b := newFloodBus(t, 1, 2, 3, 4)
	if err := b.env(1).node.Send(packet.Broadcast, []byte("once")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	for _, a := range []packet.Address{2, 3, 4} {
		if got := len(b.env(a).msgs); got != 1 {
			t.Errorf("node %v delivered %d copies, want 1", a, got)
		}
		if got := b.env(a).node.Metrics().Counter("fwd.frames").Value(); got > 1 {
			t.Errorf("node %v rebroadcast %d times, want ≤1", a, got)
		}
	}
}

func TestFloodTTLBoundsPropagation(t *testing.T) {
	// The origin plus ttl-1 rebroadcasts reach ttl hops: on a chain of
	// ttl+2 nodes the last but one hears a broadcast and the last does not.
	chain := make([]packet.Address, ttl+2)
	for i := range chain {
		chain[i] = packet.Address(i + 1)
	}
	b := newFloodBus(t, chain...)
	b.drop = chainDrop(chain)
	if err := b.env(1).node.Send(packet.Broadcast, []byte("short")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if len(b.env(ttl+1).msgs) != 1 {
		t.Errorf("flood did not reach %d hops", ttl)
	}
	if len(b.env(ttl+2).msgs) != 0 {
		t.Errorf("flood crossed %d hops, past its TTL", ttl+1)
	}
	// TTL drops are counted somewhere along the chain.
	var ttlDrops uint64
	for _, a := range chain {
		ttlDrops += b.env(a).node.Metrics().Counter("drop.ttl").Value()
	}
	if ttlDrops == 0 {
		t.Error("no TTL drops recorded")
	}
}

func TestFloodUnicastStopsAtDestination(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	b := newFloodBus(t, chain...)
	b.drop = chainDrop(chain)
	if err := b.env(1).node.Send(2, []byte("next door")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if len(b.env(2).msgs) != 1 {
		t.Fatal("neighbor did not receive")
	}
	// Node 2 must not rebroadcast a unicast addressed to itself, so 3
	// never hears it.
	if b.env(3).node.Metrics().Counter("rx.frames").Value() != 0 {
		t.Error("destination rebroadcast a packet addressed to it")
	}
}

func TestFloodValidation(t *testing.T) {
	b := newFloodBus(t, 1)
	n := b.env(1).node
	if err := n.Send(2, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize = %v, want ErrTooLarge", err)
	}
	n.Stop()
	if err := n.Send(2, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("send after stop = %v, want ErrStopped", err)
	}
	if _, err := NewNode(packet.Broadcast, &floodEnv{}); err == nil {
		t.Error("broadcast address: want error")
	}
	if _, err := NewNode(1, nil); err == nil {
		t.Error("nil env: want error")
	}
}

func TestFloodDedupEviction(t *testing.T) {
	b := newFloodBus(t, 1, 2)
	const sends = dedupCapacity + 6
	for i := 0; i < sends; i++ {
		if err := b.env(1).node.Send(packet.Broadcast, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		b.sched.RunFor(10 * time.Second)
	}
	if got := len(b.env(2).msgs); got != sends {
		t.Errorf("delivered %d, want %d despite dedup eviction", got, sends)
	}
	if got := b.env(2).node.seen.Len(); got != dedupCapacity {
		t.Errorf("dedup set holds %d after %d floods, want the cap %d", got, sends, dedupCapacity)
	}
}

func TestFloodCorruptFrames(t *testing.T) {
	b := newFloodBus(t, 1)
	n := b.env(1).node
	n.HandleFrame([]byte{1, 2}, core.RxInfo{})
	// Valid packet but payload shorter than the flood header.
	p := &packet.Packet{Dst: 1, Src: 2, Type: packet.TypeData, Via: packet.Broadcast, Payload: []byte{9}}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(frame, core.RxInfo{})
	if got := n.Metrics().Counter("rx.corrupt").Value(); got != 2 {
		t.Errorf("rx.corrupt = %d, want 2", got)
	}
}
