package reactive

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

// rbus is the loopback medium for reactive nodes with per-link drops.
type rbus struct {
	sched *simtime.Scheduler
	envs  []*renv
	drop  func(from, to packet.Address) bool
}

type renv struct {
	b        *rbus
	node     *Node
	addr     packet.Address
	rng      *rand.Rand
	msgs     []core.AppMessage
	txActive bool
}

func (e *renv) Now() time.Time { return e.b.sched.Now() }

func (e *renv) Schedule(d time.Duration, fn func()) func() {
	h := e.b.sched.MustAfter(d, fn)
	return func() { e.b.sched.Cancel(h) }
}

func (e *renv) Transmit(frame []byte) (time.Duration, error) {
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

func (e *renv) ChannelBusy() (bool, error)  { return false, nil }
func (e *renv) Deliver(msg core.AppMessage) { e.msgs = append(e.msgs, msg) }
func (e *renv) StreamDone(core.StreamEvent) {}
func (e *renv) Rand() float64               { return e.rng.Float64() }

var _ core.Env = (*renv)(nil)

func newRBus(t *testing.T, addrs ...packet.Address) *rbus {
	t.Helper()
	b := &rbus{sched: simtime.NewScheduler(t0)}
	for i, a := range addrs {
		env := &renv{b: b, addr: a, rng: rand.New(rand.NewSource(int64(i) + 1))}
		n, err := NewNode(core.Config{Address: a}, env)
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

func (b *rbus) env(a packet.Address) *renv {
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

func TestDiscoveryAndDelivery(t *testing.T) {
	chain := []packet.Address{1, 2, 3, 4}
	b := newRBus(t, chain...)
	b.drop = chainDrop(chain)
	src := b.env(1).node
	// First send triggers discovery: no error, buffered.
	if err := src.Send(4, []byte("on demand")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	msgs := b.env(4).msgs
	if len(msgs) != 1 || string(msgs[0].Payload) != "on demand" || msgs[0].From != 1 {
		t.Fatalf("destination messages = %+v", msgs)
	}
	// Forward route installed at the source and reverse at the dest.
	if len(src.routes) == 0 {
		t.Error("originator learned no routes")
	}
	if got := src.Metrics().Counter("discovery.succeeded").Value(); got != 1 {
		t.Errorf("discovery.succeeded = %d, want 1", got)
	}
	// Second send uses the cached route: no new RREQ flood.
	rreqs := src.Metrics().Counter("rreq.sent").Value()
	if err := src.Send(4, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if got := src.Metrics().Counter("rreq.sent").Value(); got != rreqs {
		t.Errorf("cached-route send triggered %d new RREQs", got-rreqs)
	}
	if len(b.env(4).msgs) != 2 {
		t.Fatalf("second datagram not delivered")
	}
}

func TestReverseRouteFromDiscovery(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	b := newRBus(t, chain...)
	b.drop = chainDrop(chain)
	if err := b.env(1).node.Send(3, []byte("fwd")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	// The destination learned the reverse route from the RREQ, so its
	// reply direction needs no discovery of its own.
	dst := b.env(3).node
	rreqs := dst.Metrics().Counter("rreq.sent").Value()
	if err := dst.Send(1, []byte("rev")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if got := dst.Metrics().Counter("rreq.sent").Value(); got != rreqs {
		t.Error("reply direction required a fresh discovery")
	}
	if len(b.env(1).msgs) != 1 {
		t.Fatal("reverse datagram not delivered")
	}
}

func TestDiscoveryFailureDropsPending(t *testing.T) {
	b := newRBus(t, 1, 2)
	src := b.env(1).node
	// Destination 9 does not exist.
	if err := src.Send(9, []byte("void")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor((2 + maxDiscoveryRetries) * discoveryTimeout)
	if got := src.Metrics().Counter("discovery.failed").Value(); got != 1 {
		t.Errorf("discovery.failed = %d, want 1", got)
	}
	if got := src.Metrics().Counter("drop.noroute").Value(); got != 1 {
		t.Errorf("drop.noroute = %d, want 1", got)
	}
	if len(src.pending) != 0 || len(src.discoveries) != 0 {
		t.Error("failed discovery leaked state")
	}
	// Retries happened: one initial RREQ plus maxDiscoveryRetries.
	if got := src.Metrics().Counter("rreq.sent").Value(); got != 1+maxDiscoveryRetries {
		t.Errorf("rreq.sent = %d, want %d", got, 1+maxDiscoveryRetries)
	}
}

func TestPendingCapacity(t *testing.T) {
	b := newRBus(t, 1)
	src := b.env(1).node
	for i := 0; i < pendingCapacity; i++ {
		if err := src.Send(9, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Send(9, []byte{0xFF}); !errors.Is(err, ErrPendingFull) {
		t.Errorf("buffered send %d = %v, want ErrPendingFull", pendingCapacity+1, err)
	}
}

func TestRouteExpiry(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	b := newRBus(t, chain...)
	b.drop = chainDrop(chain)
	src := b.env(1).node
	if err := src.Send(3, []byte("a")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if len(b.env(3).msgs) != 1 {
		t.Fatal("setup: first datagram not delivered")
	}
	// A send inside the TTL rides the cached route.
	b.sched.RunFor(routeTTL - 2*time.Minute)
	if err := src.Send(3, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if got := src.Metrics().Counter("rreq.sent").Value(); got != 1 {
		t.Fatalf("rreq.sent = %d inside the route TTL, want the one discovery", got)
	}
	// Idle past the TTL: the route expires and the next send re-discovers.
	b.sched.RunFor(routeTTL)
	rreqs := src.Metrics().Counter("rreq.sent").Value()
	if err := src.Send(3, []byte("b")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	if got := src.Metrics().Counter("rreq.sent").Value(); got <= rreqs {
		t.Error("expired route did not trigger re-discovery")
	}
	if len(b.env(3).msgs) != 3 {
		t.Fatal("post-expiry datagram not delivered")
	}
}

func TestRReqDeduplication(t *testing.T) {
	// Full connectivity: every node hears both the original flood and
	// every relay, but must relay a given request at most once.
	b := newRBus(t, 1, 2, 3, 4)
	if err := b.env(1).node.Send(4, []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(time.Minute)
	for _, a := range []packet.Address{2, 3} {
		if got := b.env(a).node.Metrics().Counter("rreq.relayed").Value(); got > 1 {
			t.Errorf("node %v relayed the same RREQ %d times", a, got)
		}
		if b.env(a).node.Metrics().Counter("rreq.duplicate").Value() == 0 {
			t.Errorf("node %v saw no duplicate RREQs on a clique", a)
		}
	}
}

func TestMaxHopsBoundsFlood(t *testing.T) {
	// A destination maxHops hops away is discovered; one hop farther the
	// flood dies at the last relay.
	for _, hops := range []int{maxHops, maxHops + 1} {
		chain := make([]packet.Address, hops+1)
		for i := range chain {
			chain[i] = packet.Address(i + 1)
		}
		b := newRBus(t, chain...)
		b.drop = chainDrop(chain)
		far := chain[hops]
		if err := b.env(1).node.Send(far, []byte("far")); err != nil {
			t.Fatal(err)
		}
		b.sched.RunFor(2 * time.Minute)
		var ttlDrops uint64
		for _, a := range chain {
			ttlDrops += b.env(a).node.Metrics().Counter("drop.ttl").Value()
		}
		if got, reachable := len(b.env(far).msgs), hops <= maxHops; reachable && (got != 1 || ttlDrops != 0) {
			t.Errorf("%d hops: %d deliveries, %d TTL drops, want 1 and 0", hops, got, ttlDrops)
		} else if !reachable && (got != 0 || ttlDrops == 0) {
			t.Errorf("%d hops: %d deliveries, %d TTL drops, want none and some (maxHops %d)", hops, got, ttlDrops, maxHops)
		}
	}
}

func TestBroadcastData(t *testing.T) {
	b := newRBus(t, 1, 2, 3)
	if err := b.env(1).node.Send(packet.Broadcast, []byte("all")); err != nil {
		t.Fatal(err)
	}
	b.sched.RunFor(30 * time.Second)
	for _, a := range []packet.Address{2, 3} {
		if len(b.env(a).msgs) != 1 {
			t.Errorf("node %v got %d broadcast messages, want 1", a, len(b.env(a).msgs))
		}
	}
}

func TestValidationAndStop(t *testing.T) {
	if _, err := NewNode(core.Config{Address: packet.Broadcast}, &renv{}); err == nil {
		t.Error("broadcast address: want error")
	}
	if _, err := NewNode(core.Config{Address: 1}, nil); err == nil {
		t.Error("nil env: want error")
	}
	b := newRBus(t, 1)
	n := b.env(1).node
	if err := n.Send(2, make([]byte, packet.MaxPayload(packet.TypeData)+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize = %v, want ErrTooLarge", err)
	}
	n.Stop()
	if err := n.Send(2, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("send after stop = %v, want ErrStopped", err)
	}
	if err := n.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("start after stop = %v, want ErrStopped", err)
	}
	n.HandleFrame([]byte{1}, core.RxInfo{}) // no panic
	n.HandleTxDone()
}

func TestCorruptControlPackets(t *testing.T) {
	b := newRBus(t, 1, 2)
	n := b.env(2).node
	// RREQ with a short payload.
	p := &packet.Packet{Dst: 2, Src: 1, Type: packet.TypeRouteRequest, Payload: []byte{1}}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(frame, core.RxInfo{})
	// RREP with a short payload.
	p = &packet.Packet{Dst: 2, Src: 1, Type: packet.TypeRouteReply, Via: 2, Payload: []byte{1, 2}}
	frame, err = packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(frame, core.RxInfo{})
	if got := n.Metrics().Counter("rx.corrupt").Value(); got != 2 {
		t.Errorf("rx.corrupt = %d, want 2", got)
	}
}
