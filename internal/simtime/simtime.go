// Package simtime implements a deterministic discrete-event scheduler.
//
// The scheduler maintains a virtual clock and an ordered queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes every simulation run bit-for-bit reproducible for
// a given seed and workload. The virtual clock only advances when an event
// fires; simulating hours of network time therefore costs only as much wall
// time as the event handlers themselves.
package simtime

import (
	"fmt"
	"time"
)

// Handle identifies a scheduled event so that it can be cancelled: the
// event's slot and its schedule sequence number. The zero Handle is
// invalid and is never returned by the scheduler.
type Handle struct {
	slot int32
	seq  uint64
}

// event is a scheduled callback in the scheduler's slab. seq is the live
// event's schedule number and 0 once it fired or was cancelled. A slot
// returns to the freelist only when its heap entry leaves the heap, never
// at Cancel time, because the entry still names the slot until Step or
// NextAt discards it.
type event struct {
	at  time.Time
	fn  func()
	seq uint64
}

// entry is one heap element: the event's ordering key and its slot. An
// entry whose seq differs from its slot's is a cancelled event.
type entry struct {
	atNs int64  // at.UnixNano(), precomputed for ordering
	seq  uint64 // tie-breaker: schedule order
	slot int32
}

func (a entry) before(b entry) bool {
	return a.atNs < b.atNs || (a.atNs == b.atNs && a.seq < b.seq)
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; the simulation drives it from a single goroutine.
type Scheduler struct {
	now     time.Time
	heap    []entry // binary min-heap ordered by (atNs, seq)
	events  []event
	free    []int32 // slots whose entries have left the heap
	nextSeq uint64
	live    int
	fired   uint64
}

// NewScheduler returns a scheduler whose clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Len returns the number of pending (non-cancelled) events.
func (s *Scheduler) Len() int { return s.live }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at the given virtual time. Scheduling in the past
// is an error: the simulation would lose causal ordering.
func (s *Scheduler) At(at time.Time, fn func()) (Handle, error) {
	if fn == nil {
		return Handle{}, fmt.Errorf("simtime: schedule nil callback at %v", at)
	}
	if at.Before(s.now) {
		return Handle{}, fmt.Errorf("simtime: schedule at %v is before now %v", at, s.now)
	}
	s.nextSeq++
	slot := int32(len(s.events))
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.events = append(s.events, event{})
	}
	s.events[slot] = event{at: at, fn: fn, seq: s.nextSeq}
	s.push(entry{atNs: at.UnixNano(), seq: s.nextSeq, slot: slot})
	s.live++
	return Handle{slot: slot, seq: s.nextSeq}, nil
}

// After schedules fn to run d after the current virtual time. A negative
// duration is an error.
func (s *Scheduler) After(d time.Duration, fn func()) (Handle, error) {
	if d < 0 {
		return Handle{}, fmt.Errorf("simtime: negative delay %v", d)
	}
	return s.At(s.now.Add(d), fn)
}

// MustAfter is After for callers that schedule with non-negative delays and
// non-nil callbacks by construction. It panics on error, which would
// indicate a programming bug rather than a runtime condition.
func (s *Scheduler) MustAfter(d time.Duration, fn func()) Handle {
	h, err := s.After(d, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Cancel removes a pending event. It reports whether the event was still
// pending; cancelling an already-fired or already-cancelled event is a
// harmless no-op that returns false. Sequence numbers never repeat, so a
// handle whose slot has since been reused no longer matches it.
func (s *Scheduler) Cancel(h Handle) bool {
	if h.seq == 0 || int(h.slot) >= len(s.events) || s.events[h.slot].seq != h.seq {
		return false
	}
	s.events[h.slot] = event{}
	s.live--
	return true
}

// Step executes the next pending event, advancing the clock to its
// scheduled time. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		e := s.pop()
		ev := &s.events[e.slot]
		// Recycle before firing: the entry is out of the heap, so the
		// callback can schedule freely, even into this slot.
		s.free = append(s.free, e.slot)
		if ev.seq != e.seq {
			continue // cancelled
		}
		fn := ev.fn
		s.now = ev.at
		*ev = event{}
		s.live--
		s.fired++
		fn()
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is exhausted or the
// next event is after deadline. The clock is left at the later of its
// current value and deadline, so periodic measurements can rely on the
// clock having reached the deadline even in an idle network.
func (s *Scheduler) RunUntil(deadline time.Time) { s.runTo(deadline, true) }

// RunBefore executes events in order while they are scheduled strictly
// before t, then advances the clock to t. It is the windowed-execution
// primitive for the sharded simulator: a window [a, b) is processed with
// RunBefore(b), so an event landing exactly on the boundary belongs to the
// next window — after the barrier at b — never to this one. Leaving the
// clock at t lets barrier-time integration schedule events at >= t without
// tripping the schedule-in-the-past guard.
func (s *Scheduler) RunBefore(t time.Time) { s.runTo(t, false) }

// runTo executes events in order while they are scheduled before t, or at
// t when inclusive, then advances the clock to t unless it is later.
func (s *Scheduler) runTo(t time.Time, inclusive bool) {
	for {
		next, ok := s.NextAt()
		if !ok || next.After(t) || !inclusive && next.Equal(t) {
			break
		}
		s.Step()
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// RunFor advances the simulation by d. See RunUntil.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// Run executes events until none remain or maxEvents have fired.
// maxEvents <= 0 means no limit. It returns the number of events executed.
func (s *Scheduler) Run(maxEvents int) int {
	n := 0
	for maxEvents <= 0 || n < maxEvents {
		if !s.Step() {
			break
		}
		n++
	}
	return n
}

// NextAt returns the time of the earliest pending event, discarding
// cancelled entries from the top of the heap on the way.
func (s *Scheduler) NextAt() (time.Time, bool) {
	for len(s.heap) > 0 {
		e := s.heap[0]
		if ev := &s.events[e.slot]; ev.seq == e.seq {
			return ev.at, true
		}
		s.pop()
		s.free = append(s.free, e.slot)
	}
	return time.Time{}, false
}

// push adds e to the heap, sifting it up from the last position.
func (s *Scheduler) push(e entry) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the heap's minimum, sifting the last entry down
// from the root.
func (s *Scheduler) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}
