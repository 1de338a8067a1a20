package simtime

import (
	"testing"
	"time"
)

// TestRunBeforeExcludesBoundary pins the window semantics of PopBefore: an
// item at exactly the window's end stays queued and the clock lands on the
// end, an item pushed at the end between windows is legal and pops after
// the one already there, and the next window takes both.
func TestRunBeforeExcludesBoundary(t *testing.T) {
	const ms = int64(time.Millisecond)
	var q Queue[string]
	var now int64
	q.Push(5*ms, "early")
	q.Push(10*ms, "boundary")
	q.Push(15*ms, "late")
	var fired []string
	runBefore := func(endNs int64) {
		for e, ok := q.PopBefore(endNs, &now); ok; e, ok = q.PopBefore(endNs, &now) {
			if e.AtNs != now {
				t.Fatalf("%s popped at clock %d ns, want %d ns", e.Val, now, e.AtNs)
			}
			fired = append(fired, e.Val)
		}
	}

	runBefore(10 * ms)
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("after [0, 10 ms) fired %v, want [early]", fired)
	}
	if now != 10*ms || q.Len() != 2 || q.Min().AtNs != 10*ms {
		t.Fatalf("clock at %d ns, %d queued, next at %d ns; want 10 ms, 2, 10 ms", now, q.Len(), q.Min().AtNs)
	}
	q.Push(now, "at-now")

	runBefore(20 * ms)
	want := []string{"early", "boundary", "at-now", "late"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if now != 20*ms || q.Len() != 0 {
		t.Fatalf("clock at %d ns, %d queued; want 20 ms, 0", now, q.Len())
	}
}

// TestRunBeforeIdleAdvancesClock checks the empty window: with nothing
// queued, or nothing before the end, the clock still lands on the window's
// end, and an earlier end never moves it back.
func TestRunBeforeIdleAdvancesClock(t *testing.T) {
	const s = int64(time.Second)
	var q Queue[int32]
	var now int64
	if _, ok := q.PopBefore(s, &now); ok || now != s {
		t.Fatalf("empty queue: popped %v, clock %d ns; want nothing, 1 s", ok, now)
	}
	if _, ok := q.PopBefore(s/2, &now); ok || now != s {
		t.Fatalf("earlier end: popped %v, clock %d ns; want nothing, 1 s", ok, now)
	}
	q.Push(3*s, 7)
	if _, ok := q.PopBefore(2*s, &now); ok || now != 2*s || q.Len() != 1 {
		t.Fatalf("item after the end: popped %v, clock %d ns, %d queued; want nothing, 2 s, 1", ok, now, q.Len())
	}
}
