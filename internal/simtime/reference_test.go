package simtime

// The reference: the scheduler as it stood before the typed heap over a
// slab — container/heap over *event pointers and a pending map — verbatim
// but for its names and the methods no test calls.
// TestSchedulerMatchesReference holds Scheduler to it.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refHandle identifies a scheduled event so that it can be cancelled.
// The zero refHandle is invalid and is never returned by the scheduler.
type refHandle uint64

// refEvent is a single scheduled callback. Events are pooled on the
// scheduler's freelist: one is recycled only after it leaves the heap
// (fired or popped while cancelled), never at Cancel time, because the
// heap still references a cancelled event until Step or peek discards it.
type refEvent struct {
	at       time.Time
	atNs     int64  // at.UnixNano(), precomputed for heap ordering
	seq      uint64 // tie-breaker: schedule order
	fn       func()
	handle   refHandle
	canceled bool
	index    int // position in the heap, maintained by refEventQueue
}

// refEventQueue is a min-heap of events ordered by (at, seq).
type refEventQueue []*refEvent

var _ heap.Interface = (*refEventQueue)(nil)

func (q refEventQueue) Len() int { return len(q) }

func (q refEventQueue) Less(i, j int) bool {
	if q[i].atNs != q[j].atNs {
		return q[i].atNs < q[j].atNs
	}
	return q[i].seq < q[j].seq
}

func (q refEventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refEventQueue) Push(x any) {
	ev, ok := x.(*refEvent)
	if !ok {
		panic(fmt.Sprintf("simtime: pushed non-event %T", x))
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// refScheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; the simulation drives it from a single goroutine.
type refScheduler struct {
	now     time.Time
	queue   refEventQueue
	nextSeq uint64
	pending map[refHandle]*refEvent
	fired   uint64
	// free holds events that have left the heap, ready for reuse by At.
	// Handles stay unique across reuse because they come from nextSeq,
	// which never repeats.
	free []*refEvent
}

// newRefScheduler returns a scheduler whose clock starts at start.
func newRefScheduler(start time.Time) *refScheduler {
	return &refScheduler{
		now:     start,
		pending: make(map[refHandle]*refEvent),
	}
}

// Now returns the current virtual time.
func (s *refScheduler) Now() time.Time { return s.now }

// Len returns the number of pending (non-cancelled) events.
func (s *refScheduler) Len() int { return len(s.pending) }

// Fired returns the total number of events executed so far.
func (s *refScheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at the given virtual time. Scheduling in the past
// is an error: the simulation would lose causal ordering.
func (s *refScheduler) At(at time.Time, fn func()) (refHandle, error) {
	if fn == nil {
		return 0, fmt.Errorf("simtime: schedule nil callback at %v", at)
	}
	if at.Before(s.now) {
		return 0, fmt.Errorf("simtime: schedule at %v is before now %v", at, s.now)
	}
	s.nextSeq++
	var ev *refEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &refEvent{}
	}
	ev.at = at
	ev.atNs = at.UnixNano()
	ev.seq = s.nextSeq
	ev.fn = fn
	ev.handle = refHandle(s.nextSeq)
	ev.canceled = false
	heap.Push(&s.queue, ev)
	s.pending[ev.handle] = ev
	return ev.handle, nil
}

// release returns an event that has left the heap to the freelist,
// dropping its callback so the closure (and anything it captures) is not
// retained past the fire.
func (s *refScheduler) release(ev *refEvent) {
	ev.fn = nil
	ev.handle = 0
	ev.canceled = false
	ev.index = -1
	s.free = append(s.free, ev)
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired or already-cancelled event is a
// harmless no-op that returns false.
func (s *refScheduler) Cancel(h refHandle) bool {
	ev, ok := s.pending[h]
	if !ok {
		return false
	}
	ev.canceled = true
	delete(s.pending, h)
	return true
}

// Step executes the next pending event, advancing the clock to its
// scheduled time. It reports whether an event was executed.
func (s *refScheduler) Step() bool {
	for s.queue.Len() > 0 {
		ev, ok := heap.Pop(&s.queue).(*refEvent)
		if !ok {
			panic("simtime: queue held non-event")
		}
		if ev.canceled {
			s.release(ev)
			continue
		}
		delete(s.pending, ev.handle)
		s.now = ev.at
		s.fired++
		fn := ev.fn
		// Recycle before firing: the event is out of the heap and out of
		// pending, so the callback can schedule freely without observing it.
		s.release(ev)
		fn()
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is exhausted or the
// next event is after deadline. The clock is left at the later of its
// current value and deadline, so periodic measurements can rely on the
// clock having reached the deadline even in an idle network.
func (s *refScheduler) RunUntil(deadline time.Time) {
	for {
		next, ok := s.peek()
		if !ok || next.at.After(deadline) {
			break
		}
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// RunBefore executes events in order while they are scheduled strictly
// before t, then advances the clock to t. It is the windowed-execution
// primitive for the sharded simulator: a window [a, b) is processed with
// RunBefore(b), so an event landing exactly on the boundary belongs to the
// next window — after the barrier at b — never to this one. Leaving the
// clock at t lets barrier-time integration schedule events at >= t without
// tripping the schedule-in-the-past guard.
func (s *refScheduler) RunBefore(t time.Time) {
	for {
		next, ok := s.peek()
		if !ok || !next.at.Before(t) {
			break
		}
		s.Step()
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// peek returns the earliest pending event without executing it.
func (s *refScheduler) peek() (*refEvent, bool) {
	for s.queue.Len() > 0 {
		ev := s.queue[0]
		if !ev.canceled {
			return ev, true
		}
		heap.Pop(&s.queue)
		s.release(ev)
	}
	return nil, false
}

// NextAt returns the time of the earliest pending event.
func (s *refScheduler) NextAt() (time.Time, bool) {
	ev, ok := s.peek()
	if !ok {
		return time.Time{}, false
	}
	return ev.at, true
}

// wheel is the surface both schedulers share, generic in the handle type.
type wheel[H comparable] interface {
	Now() time.Time
	Len() int
	Fired() uint64
	At(time.Time, func()) (H, error)
	Cancel(H) bool
	Step() bool
	RunBefore(time.Time)
	RunUntil(time.Time)
	NextAt() (time.Time, bool)
}

var (
	_ wheel[Handle]    = (*Scheduler)(nil)
	_ wheel[refHandle] = (*refScheduler)(nil)
)

// driveWheel applies a random op sequence drawn from seed to w and returns
// everything it observed: each fire, each op's result, and the clock,
// Len and Fired after every op. Delays come from a few milliseconds, so
// same-instant ties are common; cancels pick any handle ever returned —
// live, fired, already cancelled, or stale with its slot reused — or the
// zero handle. Callbacks schedule and cancel too.
func driveWheel[H comparable](w wheel[H], seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var handles []H
	delay := func() time.Duration { return time.Duration(rng.Intn(5)) * time.Millisecond }
	pick := func() H {
		var zero H
		if n := len(handles); n > 0 && rng.Intn(8) != 0 {
			return handles[rng.Intn(n)]
		}
		return zero
	}
	id := 0
	var schedule func(at time.Time)
	schedule = func(at time.Time) {
		id++
		me := id
		h, err := w.At(at, func() {
			log = append(log, fmt.Sprintf("fire %d at %v", me, w.Now().Sub(testEpoch)))
			switch rng.Intn(4) {
			case 0:
				schedule(w.Now().Add(delay()))
			case 1:
				log = append(log, fmt.Sprintf("  cancel from %d: %v", me, w.Cancel(pick())))
			}
		})
		log = append(log, fmt.Sprintf("at %d +%v err=%v", me, at.Sub(testEpoch), err != nil))
		handles = append(handles, h)
	}
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 4:
			at := w.Now().Add(delay())
			if rng.Intn(16) == 0 {
				at = w.Now().Add(-time.Millisecond) // in the past: an error
			}
			schedule(at)
		case op < 6:
			log = append(log, fmt.Sprintf("cancel %v", w.Cancel(pick())))
		case op == 6:
			log = append(log, fmt.Sprintf("step %v", w.Step()))
		case op == 7:
			w.RunBefore(w.Now().Add(delay()))
		case op == 8:
			w.RunUntil(w.Now().Add(delay()))
		default:
			at, ok := w.NextAt()
			log = append(log, fmt.Sprintf("next %v %v", at.Sub(testEpoch), ok))
		}
		log = append(log, fmt.Sprintf("now %v len %d fired %d", w.Now().Sub(testEpoch), w.Len(), w.Fired()))
	}
	return log
}

// TestSchedulerMatchesReference holds the slab scheduler to the
// container/heap one it replaced: the same random op sequences must fire
// the same events in the same order and report the same clock, Len,
// Fired, NextAt and Cancel results.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		got := driveWheel[Handle](NewScheduler(testEpoch), seed, 300)
		want := driveWheel[refHandle](newRefScheduler(testEpoch), seed, 300)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: diverges at line %d:\n%s", seed, i, diffContext(got, want, i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d lines, reference %d", seed, len(got), len(want))
		}
	}
}

func diffContext(got, want []string, i int) string {
	line := func(ls []string, k int) string {
		if k < len(ls) {
			return ls[k]
		}
		return "<end>"
	}
	out := ""
	for k := max(i-3, 0); k <= i; k++ {
		out += fmt.Sprintf("  got  %s\n  want %s\n", line(got, k), line(want, k))
	}
	return out
}
