package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/forward"
	"repro/internal/metrics"
	"repro/internal/packet"
)

func mkPacket(typ packet.Type, tag byte) *packet.Packet {
	p := &packet.Packet{Dst: 2, Src: 1, Type: typ, Payload: []byte{tag}}
	if typ.Routed() {
		p.Via = 2
	}
	return p
}

func TestTxQueuePriorityOrder(t *testing.T) {
	q := &txQueue{}
	// Enqueue low priority first.
	if err := q.push(mkPacket(packet.TypeData, 1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkPacket(packet.TypeAck, 2), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkPacket(packet.TypeHello, 3), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkPacket(packet.TypeData, 4), time.Time{}); err != nil {
		t.Fatal(err)
	}
	wantOrder := []packet.Type{packet.TypeHello, packet.TypeAck, packet.TypeData, packet.TypeData}
	wantTags := []byte{3, 2, 1, 4} // FIFO within a priority level
	for i, want := range wantOrder {
		p, _, ok := q.pop()
		if !ok {
			t.Fatalf("queue empty at %d", i)
		}
		if p.Type != want || p.Payload[0] != wantTags[i] {
			t.Errorf("pop %d = %v tag %d, want %v tag %d", i, p.Type, p.Payload[0], want, wantTags[i])
		}
	}
	if _, _, ok := q.pop(); ok {
		t.Error("pop on empty queue returned a packet")
	}
}

func TestTxQueuePeekDoesNotRemove(t *testing.T) {
	q := &txQueue{}
	if err := q.push(mkPacket(packet.TypeData, 7), time.Time{}); err != nil {
		t.Fatal(err)
	}
	p1, ok1 := q.peek()
	p2, ok2 := q.peek()
	if !ok1 || !ok2 || p1 != p2 {
		t.Error("peek removed or changed the head")
	}
	if q.len() != 1 {
		t.Errorf("len after peeks = %d, want 1", q.len())
	}
}

func TestTxQueuePopReturnsEnqueueTime(t *testing.T) {
	q := &txQueue{}
	at := time.Date(2022, 5, 10, 12, 0, 0, 0, time.UTC)
	if err := q.push(mkPacket(packet.TypeData, 1), at); err != nil {
		t.Fatal(err)
	}
	_, got, ok := q.pop()
	if !ok || !got.Equal(at) {
		t.Errorf("pop enqueue time = %v, want %v", got, at)
	}
}

func TestTxQueueCapacityAndEviction(t *testing.T) {
	q := &txQueue{}
	for i := 0; i < queueCapacity; i++ {
		if err := q.push(mkPacket(packet.TypeData, byte(i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Data beyond capacity is rejected.
	if err := q.push(mkPacket(packet.TypeData, 9), time.Time{}); err == nil {
		t.Error("overfull data push: want error")
	}
	// Control (non-routing) beyond capacity is rejected too.
	if err := q.push(mkPacket(packet.TypeAck, 9), time.Time{}); err == nil {
		t.Error("overfull control push: want error")
	}
	// A HELLO evicts the newest data packet.
	if err := q.push(mkPacket(packet.TypeHello, 9), time.Time{}); err != nil {
		t.Fatalf("hello should evict data: %v", err)
	}
	if q.len() != queueCapacity {
		t.Errorf("len = %d after eviction, want %d", q.len(), queueCapacity)
	}
	// First out is the hello, then the data in order, less the newest.
	p, _, _ := q.pop()
	if p.Type != packet.TypeHello {
		t.Errorf("head = %v, want HELLO", p.Type)
	}
	for i := 0; i < queueCapacity-1; i++ {
		if p, _, _ = q.pop(); int(p.Payload[0]) != i {
			t.Fatalf("pop %d = tag %d, want %d", i+1, p.Payload[0], i)
		}
	}
	if _, _, ok := q.pop(); ok {
		t.Errorf("tag %d survived: the HELLO should have evicted the newest data", queueCapacity-1)
	}
}

func TestTxQueueHelloCannotEvictControl(t *testing.T) {
	q := &txQueue{}
	for i := 0; i < queueCapacity; i += 2 {
		if err := q.push(mkPacket(packet.TypeAck, 1), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if err := q.push(mkPacket(packet.TypeSync, 2), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Queue full of control packets: even a HELLO is refused rather than
	// dropping stream control.
	if err := q.push(mkPacket(packet.TypeHello, 3), time.Time{}); err == nil {
		t.Error("hello evicted stream control: want error")
	}
}

func TestHelloPagination(t *testing.T) {
	// A routing table larger than one frame's 62 entries must go out as
	// multiple HELLO packets covering every row.
	b := newBus(t, fastConfig(), 1)
	n := b.env(1).node
	total := packet.MaxHelloEntries + 20
	for i := 0; i < total; i++ {
		n.Table().ApplyHello(b.sched.Now(), packet.Address(0x100+i), packet.RoleDefault, 0, nil)
	}
	// Pretend a transmission is in flight so the pump leaves both HELLO
	// pages in the queue for inspection.
	n.tx.transmitting = true
	n.sendHello()
	var frames []*packet.Packet
	for {
		p, _, ok := n.tx.queue.pop()
		if !ok {
			break
		}
		if p.Type == packet.TypeHello {
			frames = append(frames, p.Clone())
		}
	}
	if len(frames) != 2 {
		t.Fatalf("table of %d rows went out in %d HELLOs, want 2", total, len(frames))
	}
	seen := map[packet.Address]bool{}
	for _, f := range frames {
		entries, err := packet.UnmarshalHello(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			seen[e.Addr] = true
		}
	}
	// total table rows plus the metric-0 self entry.
	if len(seen) != total+1 {
		t.Errorf("paginated HELLOs covered %d distinct rows, want %d", len(seen), total+1)
	}
	if !seen[n.Address()] {
		t.Error("HELLO pages missing the self entry")
	}
}

func TestFingerprintDistinguishesPackets(t *testing.T) {
	a := &packet.Packet{Dst: 1, Src: 2, Type: packet.TypeData, Via: 3, Payload: []byte("x")}
	b := a.Clone()
	if fingerprint(a) != fingerprint(b) {
		t.Error("identical packets have different fingerprints")
	}
	// Via is hop-local and must not affect identity.
	b.Via = 9
	if fingerprint(a) != fingerprint(b) {
		t.Error("via change altered the end-to-end fingerprint")
	}
	c := a.Clone()
	c.Payload = []byte("y")
	if fingerprint(a) == fingerprint(c) {
		t.Error("different payloads share a fingerprint")
	}
	d := a.Clone()
	d.Number = 7
	if fingerprint(a) == fingerprint(d) {
		t.Error("different stream numbers share a fingerprint")
	}
}

// txHost is a scripted Env for the Transmitter: it records the frames it
// is handed and the timers it is asked for, and fires a timer only when
// the test says so.
type txHost struct {
	sent   [][]byte
	timers []*hostTimer
	failOn int // 1-based Transmit call that errors; 0 = never
	calls  int
}

type hostTimer struct {
	d         time.Duration
	fn        func()
	cancelled bool
}

func (h *txHost) Now() time.Time { return t0 }

func (h *txHost) Schedule(d time.Duration, fn func()) func() {
	ht := &hostTimer{d: d, fn: fn}
	h.timers = append(h.timers, ht)
	return func() { ht.cancelled = true }
}

func (h *txHost) Transmit(frame []byte) (time.Duration, error) {
	h.calls++
	if h.calls == h.failOn {
		return 0, errors.New("radio refused")
	}
	h.sent = append(h.sent, append([]byte(nil), frame...))
	return time.Millisecond, nil
}

func (h *txHost) ChannelBusy() (bool, error) { return false, nil }
func (h *txHost) Deliver(AppMessage)         {}
func (h *txHost) StreamDone(StreamEvent)     {}
func (h *txHost) Rand() float64              { return 0.5 }

// fire runs the pending timers in the order they were asked for,
// including any a fired one asks for.
func (h *txHost) fire() {
	for len(h.timers) > 0 {
		ht := h.timers[0]
		h.timers = h.timers[1:]
		if !ht.cancelled {
			ht.fn()
		}
	}
}

// tags decodes the payload tag of every transmitted frame.
func (h *txHost) tags(t *testing.T) string {
	t.Helper()
	var tags []byte
	for _, f := range h.sent {
		p, err := packet.Unmarshal(f)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, p.Payload[0])
	}
	return string(tags)
}

func newTestTransmitter(t *testing.T, h *txHost) (*Transmitter, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	tx, err := NewTransmitter(Config{Address: 1, DutyCycleLimit: 1}, h, reg)
	if err != nil {
		t.Fatal(err)
	}
	return tx, reg
}

// TestTxQueueOrdering holds the shared transmit path to one frame on the
// air at a time, FIFO within a priority level, a delayed packet joining
// the queue only when its hold-off ends, and the inter-frame gap after
// every transmission.
func TestTxQueueOrdering(t *testing.T) {
	h := &txHost{}
	tx, reg := newTestTransmitter(t, h)
	for _, e := range []struct {
		tag   byte
		delay time.Duration
	}{{'a', 0}, {'b', 0}, {'d', 300 * time.Millisecond}, {'c', 0}} {
		if err := tx.Enqueue(mkPacket(packet.TypeData, e.tag), e.delay); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.tags(t); got != "a" {
		t.Fatalf("on the air before TxDone: %q, want only a", got)
	}
	if len(h.timers) != 1 || h.timers[0].d != 300*time.Millisecond {
		t.Fatalf("timers after the enqueues: %d, want d's 300 ms hold-off", len(h.timers))
	}
	tx.TxDone()
	if gap := h.timers[1].d; gap != interFrameGap {
		t.Errorf("gap after a frame = %v, want %v at Rand 0.5", gap, interFrameGap)
	}
	h.fire() // d's hold-off ends during the gap and joins behind c
	for i := 0; i < 3; i++ {
		tx.TxDone()
		h.fire()
	}
	if got := h.tags(t); got != "abcd" {
		t.Errorf("transmit order %q, want abcd", got)
	}
	snap := reg.Snapshot()
	if snap["tx.frames"] != 4 || snap["tx.bytes"] == 0 || snap["tx.type.DATA"] != 4 {
		t.Errorf("tx accounting: %v", snap)
	}
}

// TestTxQueueDropsAndStop: a packet that no longer marshals is dropped
// and the next one goes out; a Transmit error drops that packet and the
// queue moves on; a stopped transmitter sends nothing, not even a packet
// whose hold-off was under way, and refuses new ones.
func TestTxQueueDropsAndStop(t *testing.T) {
	h := &txHost{failOn: 3}
	tx, reg := newTestTransmitter(t, h)
	for _, tag := range []byte{'a', 'x', 'b'} {
		if err := tx.Enqueue(mkPacket(packet.TypeData, tag), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Valid when admitted, unencodable by its turn. The queue holds its
	// own copy of x, now at its head behind a on the air: corrupt that.
	tooBig, _ := tx.queue.peek()
	tooBig.Payload = make([]byte, packet.MaxFrameLen)
	tx.TxDone()
	h.fire()
	if got := h.tags(t); got != "ab" {
		t.Fatalf("after the marshal drop: %q, want ab", got)
	}
	tx.TxDone()
	h.fire()
	for _, tag := range []byte{'c', 'd'} {
		if err := tx.Enqueue(mkPacket(packet.TypeData, tag), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.tags(t); got != "abd" {
		t.Fatalf("after the refused transmit: %q, want abd", got)
	}
	snap := reg.Snapshot()
	if snap["drop."+forward.DropMarshal] != 1 || snap["drop."+forward.DropTxError] != 1 || snap["tx.frames"] != 3 {
		t.Errorf("drop accounting: %v", snap)
	}

	if err := tx.Enqueue(mkPacket(packet.TypeData, 'e'), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tx.Stop()
	tx.TxDone()
	h.fire()
	if got := h.tags(t); got != "abd" {
		t.Errorf("stopped transmitter sent: %q", got)
	}
	if err := tx.Enqueue(mkPacket(packet.TypeData, 'f'), 0); !errors.Is(err, ErrStopped) {
		t.Errorf("Enqueue after Stop = %v, want ErrStopped", err)
	}
}
