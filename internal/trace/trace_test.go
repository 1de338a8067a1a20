package trace

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2022, 7, 1, 12, 0, 0, 0, time.UTC)

func TestEmitAndEvents(t *testing.T) {
	tr := New(10, 0)
	tr.Emit(t0, "0001", KindTx, "frame %d", 1)
	tr.Emit(t0.Add(time.Second), "0002", KindRx, "frame %d", 1)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != KindTx || evs[0].Detail != "frame 1" {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if !strings.Contains(evs[1].String(), "0002") {
		t.Errorf("String() = %q", evs[1].String())
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3, 0)
	for i := 0; i < 5; i++ {
		tr.Emit(t0.Add(time.Duration(i)*time.Second), "n", KindApp, "%d", i)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := string(rune('2' + i)); ev.Detail != want {
			t.Errorf("event %d = %q, want %q (oldest evicted, order kept)", i, ev.Detail, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestNilAndDisabledTracer(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Emit(t0, "n", KindTx, "ignored") // must not panic
	if nilTracer.Events() != nil {
		t.Error("nil tracer returned events")
	}
	if nilTracer.Dropped() != 0 {
		t.Error("nil tracer dropped nonzero")
	}
	var zero Tracer // disabled
	zero.Emit(t0, "n", KindTx, "ignored")
	if len(zero.Events()) != 0 {
		t.Error("zero-value tracer recorded an event")
	}
}

func TestWriteTo(t *testing.T) {
	tr := New(10, 0)
	tr.Emit(t0, "0001", KindDrop, "no route to %s", "0009")
	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no route to 0009") {
		t.Errorf("WriteTo output = %q", sb.String())
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := New(128, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Emit(t0, "n", KindTx, "x")
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != 128 {
		t.Errorf("retained %d, want full ring 128", got)
	}
	if got := tr.Dropped(); got != 800-128 {
		t.Errorf("dropped = %d, want %d", got, 800-128)
	}
}

// TestRingWraparoundOrderUnderConcurrency hammers a tiny ring from many
// goroutines (run under -race via scripts/check.sh), then verifies the
// ring invariants: exactly max events retained, returned in
// non-decreasing timestamp order, and Dropped counting only post-fill
// evictions.
func TestRingWraparoundOrderUnderConcurrency(t *testing.T) {
	const ring = 7
	const workers, per = 4, 50
	tr := New(ring, 0)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				// Monotone timestamps across goroutines: the ring's
				// chronological contract is per-emission order.
				mu.Lock()
				seq := next
				next++
				at := t0.Add(time.Duration(seq) * time.Millisecond)
				tr.Emit(at, "n", KindApp, "%d", seq)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != ring {
		t.Fatalf("retained %d, want %d", len(evs), ring)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatalf("events out of order at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
	total := workers * per
	if got := tr.Dropped(); got != uint64(total-ring) {
		t.Errorf("dropped = %d, want %d (eviction starts once the ring is full)", got, total-ring)
	}
	// A ring that never fills evicts nothing.
	small := New(64, 0)
	for i := 0; i < 10; i++ {
		small.Emit(t0, "n", KindApp, "x")
	}
	if got := small.Dropped(); got != 0 {
		t.Errorf("unfilled ring dropped = %d, want 0", got)
	}
}

func TestTraceIDString(t *testing.T) {
	id := TraceID(0xdeadbeef)
	if id.String() != "00000000deadbeef" {
		t.Errorf("String() = %q", id.String())
	}
	for _, in := range []string{"00000000deadbeef", "0xdeadbeef", "DEADBEEF"} {
		got, err := ParseTraceID(in)
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %v, %v, want %v", in, got, err, id)
		}
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Error("ParseTraceID on garbage: want error")
	}
	if !strings.Contains(Event{At: t0, Node: "a", Kind: KindTx, Trace: id, Detail: "d"}.String(), id.String()) {
		t.Error("Event.String() missing trace ID")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(16, 0)
	var sb strings.Builder
	tr.SetSink(&sb)
	tr.EmitPacket(t0, "0001", KindTx, 0xabc, "frame out")
	tr.Emit(t0.Add(time.Second), "0002", KindFailure, "node killed")
	evs, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("round-tripped %d events, want 2", len(evs))
	}
	if evs[0].Trace != 0xabc || evs[0].Kind != KindTx || evs[0].Detail != "frame out" {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if !evs[0].At.Equal(t0) {
		t.Errorf("timestamp drifted: %v != %v", evs[0].At, t0)
	}
	if evs[1].Trace != 0 || evs[1].Kind != KindFailure {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bogus\n")); err == nil {
		t.Error("malformed line: want error")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error %v missing line number", err)
	}
	long := "\n" + strings.Repeat("x", 2<<20)
	if _, err := ReadJSONL(strings.NewReader(long)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("over-long second line: got %v, want an error naming line 2", err)
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Errorf("blank lines = %v, %v; want empty, nil", evs, err)
	}
}

func TestSinkStreamsBeyondRingCapacity(t *testing.T) {
	tr := New(2, 0)
	var sb strings.Builder
	tr.SetSink(&sb)
	for i := 0; i < 5; i++ {
		tr.EmitPacket(t0.Add(time.Duration(i)*time.Second), "n", KindTx, TraceID(i+1), "f%d", i)
	}
	evs, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("sink captured %d events, want all 5 despite ring of 2", len(evs))
	}
	if got := len(tr.Events()); got != 2 {
		t.Errorf("ring retained %d, want 2", got)
	}
	if err := tr.SinkErr(); err != nil {
		t.Errorf("sink error = %v", err)
	}
}

func TestFilterReconstructsJourney(t *testing.T) {
	tr := New(32, 0)
	const id TraceID = 0x42
	tr.EmitPacket(t0, "0001", KindApp, id, "origin")
	tr.EmitPacket(t0.Add(time.Second), "0001", KindTx, id, "tx hop 1")
	tr.Emit(t0.Add(time.Second), "0002", KindRoute, "unrelated")
	tr.EmitPacket(t0.Add(2*time.Second), "0002", KindRx, id, "rx hop 2")
	tr.EmitPacket(t0.Add(3*time.Second), "0002", KindDrop, id, "no route")
	journey := Filter(tr.Events(), id)
	if len(journey) != 4 {
		t.Fatalf("journey has %d events, want 4", len(journey))
	}
	wantNodes := []string{"0001", "0001", "0002", "0002"}
	for i, ev := range journey {
		if ev.Node != wantNodes[i] {
			t.Errorf("journey[%d].Node = %s, want %s", i, ev.Node, wantNodes[i])
		}
	}
	if journey[3].Kind != KindDrop {
		t.Errorf("journey end = %v, want drop", journey[3].Kind)
	}
}

// TestEventClasses: the two switches are independent — a class that is
// off records nothing, health violations ride the narrative, and the
// ring holds the sum of the two capacities.
func TestEventClasses(t *testing.T) {
	emitAll := func(tr *Tracer) []Kind {
		tr.Emit(t0, "n", KindTx, "narrative")
		tr.EmitSeg(t0, "n", KindSpan, 1, "rx", 0, "DATA")
		tr.EmitSeg(t0, "n", KindHealth, 0, "loop", 0, "health.violation: loop")
		var kinds []Kind
		for _, ev := range tr.Events() {
			kinds = append(kinds, ev.Kind)
		}
		return kinds
	}
	for _, c := range []struct {
		narrative, segments int
		want                string
	}{
		{4, 0, "[tx health]"},
		{0, 4, "[span]"},
		{4, 4, "[tx span health]"},
		{0, 0, "[]"},
	} {
		tr := New(c.narrative, c.segments)
		if tr.Enabled() != (c.narrative > 0) || tr.Segments() != (c.segments > 0) {
			t.Errorf("New(%d, %d): Enabled %v, Segments %v", c.narrative, c.segments, tr.Enabled(), tr.Segments())
		}
		if got := fmt.Sprint(emitAll(tr)); got != c.want {
			t.Errorf("New(%d, %d) recorded %s, want %s", c.narrative, c.segments, got, c.want)
		}
	}
	tr := New(2, 3)
	for i := 0; i < 9; i++ {
		tr.EmitSeg(t0, "n", KindSpan, TraceID(i), "rx", 0, "")
	}
	if got := len(tr.Events()); got != 5 {
		t.Errorf("ring of New(2, 3) retained %d events, want 2+3", got)
	}
}

// The next four carry the flight-recorder contract the span recorder's tests
// held before a segment became a trace event.

func TestEmitSegNilTracer(t *testing.T) {
	var tr *Tracer
	tr.EmitSeg(t0, "0001", KindSpan, 1, "rx", 0, "") // must not panic
	tr.SetSink(nil)
	if tr.Segments() || tr.Enabled() || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report nothing")
	}
}

func TestEmitSegRingWrap(t *testing.T) {
	tr := New(0, 4)
	for i := 0; i < 6; i++ {
		tr.EmitSeg(t0.Add(time.Duration(i)*time.Second), "0001", KindSpan, TraceID(i), "rx", 0, "")
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2 of 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := TraceID(i + 2); ev.Trace != want {
			t.Fatalf("event %d trace = %v, want %v (oldest-first after wrap)", i, ev.Trace, want)
		}
	}
}

// TestEmitSegNoSinkZeroAlloc is the hot-path contract: with no sink, a
// segment allocates nothing — from the first event, not only once the
// ring has wrapped — so span capture can stay armed permanently.
func TestEmitSegNoSinkZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(0, 1024)
	node := "0001"
	emit := func() { tr.EmitSeg(t0, node, KindSpan, 42, "airtime", 70*time.Millisecond, "DATA") }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 512; i++ {
		emit()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("filling half the ring allocated %d times, want 0", n)
	}
	if n := mallocs(1000, emit); n != 0 {
		t.Fatalf("EmitSeg with no sink allocated %d times in 1000 calls across the wrap, want 0", n)
	}
}

func BenchmarkEmitSegNoSink(b *testing.B) {
	tr := New(0, 8192)
	node := "0001"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EmitSeg(t0, node, KindSpan, 42, "airtime", 70*time.Millisecond, "DATA")
	}
}

// mallocs calls f once to warm up, then runs more times on one processor,
// and returns every heap allocation those runs made: testing.AllocsPerRun
// rounds its mean down, so it passes up to runs − 1 of them unseen.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
