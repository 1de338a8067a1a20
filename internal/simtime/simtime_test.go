package simtime

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

var testEpoch = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(testEpoch)
	var got []int
	if _, err := s.After(3*time.Second, func() { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(1*time.Second, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(2*time.Second, func() { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if want := testEpoch.Add(3 * time.Second); !s.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(testEpoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustAfter(time.Second, func() { got = append(got, i) })
	}
	s.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(testEpoch)
	fired := false
	h := s.MustAfter(time.Second, func() { fired = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if n := s.queue.Len(); n != 0 {
		t.Fatalf("%d items queued after the run", n)
	}
}

func TestSchedulerCancelFromWithinEvent(t *testing.T) {
	s := NewScheduler(testEpoch)
	fired := false
	var h Handle
	h = s.MustAfter(2*time.Second, func() { fired = true })
	s.MustAfter(time.Second, func() { s.Cancel(h) })
	s.Run(0)
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestSchedulerRejectsPastAndNil(t *testing.T) {
	s := NewScheduler(testEpoch)
	if _, err := s.At(testEpoch.Add(-time.Second), func() {}); err == nil {
		t.Error("At in the past: want error")
	}
	if _, err := s.After(-time.Second, func() {}); err == nil {
		t.Error("After negative: want error")
	}
	if _, err := s.After(time.Second, nil); err == nil {
		t.Error("nil callback: want error")
	}
}

// TestSchedulerRejectsInstantsUnixNanoCannotName pins the range guard: a
// delay that lands past 2262 would order by an undefined UnixNano, so At
// refuses it, and the near timer fires first at its own instant.
func TestSchedulerRejectsInstantsUnixNanoCannotName(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	var fired []string
	if _, err := s.After(math.MaxInt64, func() { fired = append(fired, "far") }); err == nil {
		t.Error("After past 2262: want error")
	}
	if _, err := s.At(start.AddDate(300, 0, 0), func() { fired = append(fired, "far") }); err == nil {
		t.Error("At past 2262: want error")
	}
	s.MustAfter(time.Second, func() { fired = append(fired, "near") })
	if !s.Step() || len(fired) != 1 || fired[0] != "near" {
		t.Fatalf("first Step fired %v, want [near]", fired)
	}
	if want := start.Add(time.Second); s.Now() != want {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
	if s.Step() {
		t.Fatalf("a second event fired: %v", fired)
	}
	// The range's last nanosecond is an instant like any other; the next
	// one, and a clock run past the range, are not.
	last := time.Unix(0, math.MaxInt64)
	if _, err := s.At(last, func() {}); err != nil {
		t.Errorf("At the last UnixNano: %v", err)
	}
	if _, err := s.At(last.Add(1), func() {}); err == nil {
		t.Error("At a nanosecond past the range: want error")
	}
	s.RunUntil(last.Add(time.Hour))
	if s.Fired() != 2 {
		t.Errorf("fired %d events, want the near one and the last UnixNano", s.Fired())
	}
	if _, err := s.After(0, func() {}); err == nil {
		t.Error("At a clock past 2262: want error")
	}
	// Likewise the first nanosecond, on a clock started before it.
	first := time.Unix(0, math.MinInt64)
	early := NewScheduler(first.Add(-time.Hour))
	if _, err := early.At(first.Add(-1), func() {}); err == nil {
		t.Error("At a nanosecond before the range: want error")
	}
	if _, err := early.At(first, func() {}); err != nil || !early.Step() || !early.Now().Equal(first) {
		t.Errorf("At the first UnixNano: err %v, clock %v", err, early.Now())
	}
}

// TestEventIs16Bytes pins the slab element: the callback and the sequence
// number, the instant living only in the heap entry.
func TestEventIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 16 {
		t.Fatalf("event is %d bytes, want 16", size)
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(testEpoch)
	count := 0
	s.MustAfter(time.Second, func() { count++ })
	s.MustAfter(time.Minute, func() { count++ })
	deadline := testEpoch.Add(30 * time.Second)
	s.RunUntil(deadline)
	if count != 1 {
		t.Fatalf("count = %d, want 1 (second event is past deadline)", count)
	}
	if !s.Now().Equal(deadline) {
		t.Fatalf("Now() = %v, want deadline %v", s.Now(), deadline)
	}
	// The deferred event must still fire.
	s.Run(0)
	if count != 2 {
		t.Fatalf("count = %d after Run, want 2", count)
	}
}

func TestSchedulerRunForIdleNetwork(t *testing.T) {
	s := NewScheduler(testEpoch)
	s.RunFor(time.Hour)
	if want := testEpoch.Add(time.Hour); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(testEpoch)
	var times []time.Duration
	var tick func()
	n := 0
	tick = func() {
		times = append(times, s.Now().Sub(testEpoch))
		n++
		if n < 5 {
			s.MustAfter(time.Second, tick)
		}
	}
	s.MustAfter(time.Second, tick)
	s.Run(0)
	if len(times) != 5 {
		t.Fatalf("fired %d times, want 5", len(times))
	}
	for i, d := range times {
		if want := time.Duration(i+1) * time.Second; d != want {
			t.Errorf("tick %d at %v, want %v", i, d, want)
		}
	}
}

func TestSchedulerRunMaxEvents(t *testing.T) {
	s := NewScheduler(testEpoch)
	for i := 0; i < 10; i++ {
		s.MustAfter(time.Duration(i)*time.Second, func() {})
	}
	if n := s.Run(4); n != 4 {
		t.Fatalf("Run(4) executed %d, want 4", n)
	}
	if n := s.Run(0); n != 6 {
		t.Fatalf("%d events left after Run(4), want 6", n)
	}
}

// TestSchedulerPeekSkipsCancelled pins peek, which every run reads the
// next instant through: nothing on an empty queue, the earliest pending
// event, and after that one is cancelled the next, its cancelled item
// discarded from the head.
func TestSchedulerPeekSkipsCancelled(t *testing.T) {
	s := NewScheduler(testEpoch)
	if _, ok := s.peek(); ok {
		t.Fatal("peek on empty scheduler: want ok=false")
	}
	h := s.MustAfter(5*time.Second, func() {})
	s.MustAfter(9*time.Second, func() {})
	at := func(e Item[int32]) time.Time { return s.instant(e.AtNs) }
	e, ok := s.peek()
	if !ok || !at(e).Equal(testEpoch.Add(5*time.Second)) {
		t.Fatalf("peek = %v,%v, want %v,true", at(e), ok, testEpoch.Add(5*time.Second))
	}
	s.Cancel(h)
	e, ok = s.peek()
	if !ok || !at(e).Equal(testEpoch.Add(9*time.Second)) || s.queue.Len() != 1 {
		t.Fatalf("peek after cancel = %v,%v with %d queued, want %v,true with 1", at(e), ok, s.queue.Len(), testEpoch.Add(9*time.Second))
	}
}

// TestSchedulerPropertyOrdering drives the scheduler with random delays and
// checks the fundamental DES invariant: callbacks fire in nondecreasing
// virtual-time order, and the clock never runs backwards.
func TestSchedulerPropertyOrdering(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		s := NewScheduler(testEpoch)
		var fireTimes []time.Time
		for _, d := range delaysMS {
			d := time.Duration(d) * time.Millisecond
			s.MustAfter(d, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run(0)
		if len(fireTimes) != len(delaysMS) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool {
			return fireTimes[i].Before(fireTimes[j])
		}) || isNonDecreasing(fireTimes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func isNonDecreasing(ts []time.Time) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i].Before(ts[i-1]) {
			return false
		}
	}
	return true
}

// TestSchedulerDeterminism runs the same random workload twice and demands
// identical execution traces.
func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(testEpoch)
		var trace []time.Duration
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, s.Now().Sub(testEpoch))
			if depth >= 4 {
				return
			}
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Millisecond
				s.MustAfter(d, func() { spawn(depth + 1) })
			}
		}
		for i := 0; i < 20; i++ {
			d := time.Duration(rng.Intn(5000)) * time.Millisecond
			s.MustAfter(d, func() { spawn(0) })
		}
		s.Run(0)
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkSchedulerScheduleAndFire(b *testing.B) {
	s := NewScheduler(testEpoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.MustAfter(time.Duration(i%1000)*time.Millisecond, func() {})
		if i%64 == 0 {
			s.Run(32)
		}
	}
	s.Run(0)
}

// BenchmarkSchedulerTimerChurn prices Cancel the way netsim's reusable
// timers spend it: a Reset cancels the armed event and schedules afresh,
// so many events die before they fire. Each op re-arms one of 256 timers
// 100 ms to 1.1 s out and advances the clock 1 ms, firing what is due.
func BenchmarkSchedulerTimerChurn(b *testing.B) {
	s := NewScheduler(testEpoch)
	nop := func() {}
	hs := make([]Handle, 256)
	for i := range hs {
		hs[i] = s.MustAfter(time.Duration(i)*time.Millisecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(hs)
		s.Cancel(hs[k])
		hs[k] = s.MustAfter(time.Duration(100+i%1000)*time.Millisecond, nop)
		s.RunFor(time.Millisecond)
	}
}
