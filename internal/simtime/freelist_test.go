package simtime

import (
	"testing"
	"time"
)

// The freelist tests are white-box: they reach into Scheduler.free to
// verify slots are recycled exactly when their entries leave the heap
// (fired, or popped while cancelled) and never sooner, since premature
// reuse would corrupt a pending callback.

func TestFreelistRecyclesFiredEvents(t *testing.T) {
	s := NewScheduler(testEpoch)
	for i := 0; i < 4; i++ {
		s.MustAfter(time.Duration(i+1)*time.Second, func() {})
	}
	if len(s.free) != 0 {
		t.Fatalf("freelist has %d entries before any fire", len(s.free))
	}
	s.Run(0)
	if len(s.free) != 4 {
		t.Fatalf("freelist has %d entries after 4 fires, want 4", len(s.free))
	}
	// A recycled slot must not retain the old callback or sequence.
	for _, slot := range s.free {
		if ev := s.events[slot]; ev.fn != nil || ev.seq != 0 {
			t.Fatalf("freelist slot %d not cleared: %+v", slot, ev)
		}
	}
	// New schedules drain the freelist instead of allocating.
	s.MustAfter(time.Second, func() {})
	if len(s.free) != 3 {
		t.Fatalf("freelist has %d entries after reuse, want 3", len(s.free))
	}
}

func TestFreelistCancelledEventRecycledOnlyAtPop(t *testing.T) {
	s := NewScheduler(testEpoch)
	fired := false
	h := s.MustAfter(time.Second, func() { fired = true })
	s.MustAfter(2*time.Second, func() {})
	if !s.Cancel(h) {
		t.Fatal("Cancel failed")
	}
	// Cancel must NOT recycle: the heap still names the slot.
	if len(s.free) != 0 {
		t.Fatalf("freelist has %d entries right after Cancel, want 0", len(s.free))
	}
	s.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if len(s.free) != 2 {
		t.Fatalf("freelist has %d entries after run, want 2 (cancelled + fired)", len(s.free))
	}
}

func TestFreelistHandlesStayUniqueAcrossReuse(t *testing.T) {
	s := NewScheduler(testEpoch)
	seen := make(map[Handle]bool)
	// Churn the same pooled slots through many schedule/fire and
	// schedule/cancel cycles; every handle must still be distinct.
	for cycle := 0; cycle < 50; cycle++ {
		var hs []Handle
		for i := 0; i < 3; i++ {
			hs = append(hs, s.MustAfter(time.Duration(i+1)*time.Millisecond, func() {}))
		}
		for _, h := range hs {
			if seen[h] {
				t.Fatalf("handle %v repeated after slot reuse", h)
			}
			seen[h] = true
		}
		if cycle%2 == 0 {
			s.Cancel(hs[0])
		}
		s.Run(0)
	}
}

func TestFreelistRescheduleFromCallback(t *testing.T) {
	// A callback that schedules immediately gets the slot it is running
	// from (released before fn() runs). The chain must still execute in
	// order with distinct handles.
	s := NewScheduler(testEpoch)
	var order []int
	var hs []Handle
	depth := 0
	var again func()
	again = func() {
		order = append(order, depth)
		depth++
		if depth < 5 {
			hs = append(hs, s.MustAfter(time.Millisecond, again))
		}
	}
	hs = append(hs, s.MustAfter(time.Millisecond, again))
	s.Run(0)
	if len(order) != 5 {
		t.Fatalf("chain ran %d times, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("chain order = %v", order)
		}
	}
	for i := 1; i < len(hs); i++ {
		if hs[i] == hs[i-1] {
			t.Fatalf("consecutive handles equal: %v", hs[i])
		}
	}
	// The whole chain reused a single pooled slot.
	if len(s.free) != 1 {
		t.Fatalf("freelist has %d entries after chain, want 1", len(s.free))
	}
}

func TestFreelistStaleHandleCancelIsNoop(t *testing.T) {
	s := NewScheduler(testEpoch)
	h := s.MustAfter(time.Second, func() {})
	s.Run(0)
	// The slot behind h is now on the freelist; reuse it.
	fired := false
	h2 := s.MustAfter(time.Second, func() { fired = true })
	if h == h2 {
		t.Fatal("reused slot kept its old handle")
	}
	if h.slot != h2.slot {
		t.Fatalf("At took slot %d, want the freed slot %d", h2.slot, h.slot)
	}
	// Cancelling the stale handle must not touch the reused slot.
	if s.Cancel(h) {
		t.Fatal("Cancel(stale) returned true")
	}
	s.Run(0)
	if !fired {
		t.Fatal("reused event did not fire after stale-handle Cancel")
	}
}
