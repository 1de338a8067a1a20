package forward

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
)

func TestParseKindRoundTrip(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 5 {
		t.Fatalf("Kinds() = %v, want 5 strategies", kinds)
	}
	for _, k := range kinds {
		got, err := ParseKind(string(k))
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k, err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %q", k, got)
		}
	}
	if kinds[0] != KindProactive {
		t.Errorf("display order must lead with the default: %v", kinds)
	}
}

func TestParseKindUnknown(t *testing.T) {
	for _, bad := range []string{"", "Proactive", "dv", "icn "} {
		k, err := ParseKind(bad)
		if err == nil {
			t.Fatalf("ParseKind(%q) = %q, want error", bad, k)
		}
		// The message must name every accepted value — it is the -strategy
		// flag's usage hint.
		for _, want := range Kinds() {
			if !strings.Contains(err.Error(), string(want)) {
				t.Errorf("ParseKind(%q) error %q does not mention %q", bad, err, want)
			}
		}
	}
}

func TestDedupDisabled(t *testing.T) {
	var d Dedup // zero horizon: disabled
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if d.Duplicate(now, 42) {
			t.Fatal("disabled dedup reported a duplicate")
		}
	}
	if d.Len() != 0 {
		t.Errorf("disabled dedup remembered %d fingerprints", d.Len())
	}
}

func TestDedupHorizon(t *testing.T) {
	d := Dedup{Horizon: 10 * time.Second}
	now := time.Unix(0, 0)
	if d.Duplicate(now, 1) {
		t.Fatal("first sight reported as duplicate")
	}
	if !d.Duplicate(now.Add(5*time.Second), 1) {
		t.Fatal("repeat within the horizon not reported")
	}
	// The horizon measures from FIRST sight: the duplicate hit at +5s must
	// not have refreshed the timestamp, so at +10s the entry is stale.
	if d.Duplicate(now.Add(10*time.Second), 1) {
		t.Fatal("fingerprint still duplicate one full horizon after first sight")
	}
	if d.Duplicate(now, 2) {
		t.Fatal("distinct fingerprint reported as duplicate")
	}
	if d.Len() != 2 {
		t.Errorf("Len() = %d, want 2", d.Len())
	}
}

func TestDedupSweep(t *testing.T) {
	d := Dedup{Horizon: time.Second}
	now := time.Unix(0, 0)
	for fp := uint64(0); fp < 300; fp++ {
		d.Duplicate(now, fp)
	}
	// Past 256 entries, inserts sweep fingerprints older than the horizon.
	d.Duplicate(now.Add(2*time.Second), 1000)
	if d.Len() != 1 {
		t.Errorf("after sweep Len() = %d, want 1 (only the fresh fingerprint)", d.Len())
	}
}

func TestSeenSetEvictsInFirstSightOrder(t *testing.T) {
	s := SeenSet[int]{Cap: 3}
	for k := 1; k <= 3; k++ {
		if s.Remember(k) {
			t.Fatalf("first sight of %d reported as a repeat", k)
		}
	}
	// Neither a repeat nor a fresh mark moves a key in the eviction order:
	// 1 is still the oldest and goes first.
	if !s.Remember(1) {
		t.Fatal("repeat of 1 not reported")
	}
	s.Mark(1, time.Unix(9, 0))
	s.Remember(4)
	if _, ok := s.At(1); ok {
		t.Error("1 survived although it was remembered first")
	}
	s.Remember(5)
	if _, ok := s.At(2); ok {
		t.Error("2 survived the second eviction")
	}
	for _, k := range []int{3, 4, 5} {
		if _, ok := s.At(k); !ok {
			t.Errorf("%d evicted out of order", k)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len() = %d, want the capacity 3", s.Len())
	}
	// An evicted key is new again.
	if s.Remember(1) {
		t.Error("evicted key still reported as a repeat")
	}
}

func TestSeenSetMarkKeepsLatestTime(t *testing.T) {
	s := SeenSet[string]{Cap: 2}
	s.Mark("a", time.Unix(1, 0))
	s.Mark("a", time.Unix(5, 0))
	if at, ok := s.At("a"); !ok || !at.Equal(time.Unix(5, 0)) {
		t.Errorf("At(a) = %v, %v; want the latest mark", at, ok)
	}
	if _, ok := s.At("b"); ok {
		t.Error("unknown key reported as remembered")
	}
}

// txHost records what a TxQueue asks of its host.
type txHost struct {
	sent   [][]byte
	timers []func()
	delays []time.Duration
	failOn int // 1-based Transmit call that errors; 0 = never
	calls  int
}

func (h *txHost) Schedule(d time.Duration, fn func()) func() {
	h.delays = append(h.delays, d)
	h.timers = append(h.timers, fn)
	return func() {}
}

func (h *txHost) Transmit(frame []byte) (time.Duration, error) {
	h.calls++
	if h.calls == h.failOn {
		return 0, errors.New("radio refused")
	}
	h.sent = append(h.sent, append([]byte(nil), frame...))
	return time.Millisecond, nil
}

func dataPacket(tag byte) *packet.Packet {
	return &packet.Packet{Dst: 2, Src: 1, Type: packet.TypeData, Via: 2, Payload: []byte{tag}}
}

// sentTags decodes the payload tag of every transmitted frame.
func sentTags(t *testing.T, h *txHost) []byte {
	t.Helper()
	var tags []byte
	for _, f := range h.sent {
		p, err := packet.Unmarshal(f)
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, p.Payload[0])
	}
	return tags
}

func TestTxQueueOrdering(t *testing.T) {
	h := &txHost{}
	reg := metrics.NewRegistry()
	q := NewTxQueue(h, reg)

	// One frame on the air at a time, FIFO behind it; a delayed packet
	// joins the queue only when its timer fires.
	q.Enqueue(dataPacket('a'), 0)
	q.Enqueue(dataPacket('b'), 0)
	q.Enqueue(dataPacket('d'), 300*time.Millisecond)
	q.Enqueue(dataPacket('c'), 0)
	if got := string(sentTags(t, h)); got != "a" {
		t.Fatalf("on the air before TxDone: %q, want only a", got)
	}
	if len(h.delays) != 1 || h.delays[0] != 300*time.Millisecond {
		t.Fatalf("scheduled delays = %v", h.delays)
	}
	q.TxDone()
	h.timers[0]() // d's hold-off ends while b is on the air
	q.TxDone()
	q.TxDone()
	q.TxDone()
	if got := string(sentTags(t, h)); got != "abcd" {
		t.Errorf("transmit order %q, want abcd", got)
	}
	snap := reg.Snapshot()
	if snap["tx.frames"] != 4 || snap["tx.bytes"] == 0 {
		t.Errorf("tx accounting: %v", snap)
	}
}

func TestTxQueueDropsAndStop(t *testing.T) {
	h := &txHost{failOn: 3}
	reg := metrics.NewRegistry()
	q := NewTxQueue(h, reg)

	// A packet that cannot be marshalled is dropped and the one behind it
	// goes out in the same pump.
	tooBig := dataPacket('x')
	tooBig.Payload = make([]byte, packet.MaxFrameLen)
	q.Enqueue(dataPacket('a'), 0)
	q.Enqueue(tooBig, 0)
	q.Enqueue(dataPacket('b'), 0)
	q.TxDone()
	if got := string(sentTags(t, h)); got != "ab" {
		t.Fatalf("after the marshal drop: %q, want ab", got)
	}
	// A Transmit error drops that packet and leaves the radio idle: the
	// queue resumes at the next Enqueue, not by itself.
	q.TxDone()
	q.Enqueue(dataPacket('c'), 0)
	if got := string(sentTags(t, h)); got != "ab" {
		t.Fatalf("after the refused transmit: %q, want ab", got)
	}
	q.Enqueue(dataPacket('d'), 0)
	if got := string(sentTags(t, h)); got != "abd" {
		t.Fatalf("queue did not resume after a transmit error: %q", got)
	}
	snap := reg.Snapshot()
	if snap["drop."+DropMarshal] != 1 || snap["drop."+DropTxError] != 1 || snap["tx.frames"] != 3 {
		t.Errorf("drop accounting: %v", snap)
	}

	// Stopped: nothing further leaves, not even after TxDone.
	q.Enqueue(dataPacket('e'), 0)
	q.Stop()
	q.TxDone()
	if got := string(sentTags(t, h)); got != "abd" {
		t.Errorf("stopped queue transmitted: %q", got)
	}
}
