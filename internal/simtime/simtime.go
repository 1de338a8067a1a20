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
	"math"
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
// returns to the freelist only when its queue item leaves the queue, never
// at Cancel time, because the item still names the slot until Step or a
// run discards it. The instant lives only in the item's AtNs.
type event struct {
	fn  func()
	seq uint64
}

// The instants UnixNano can name, as Unix seconds and nanoseconds: from
// 1677-09-21T00:12:43.145224192Z to 2262-04-11T23:47:16.854775807Z. At
// refuses any other.
const (
	minSec, minNsec = math.MinInt64/1_000_000_000 - 1, math.MinInt64%1_000_000_000 + 1_000_000_000
	maxSec, maxNsec = math.MaxInt64 / 1_000_000_000, math.MaxInt64 % 1_000_000_000
)

// unixNanos returns t as UnixNano and whether t lies in its range; an
// instant outside it reads as the nearer end.
func unixNanos(t time.Time) (int64, bool) {
	sec, nsec := t.Unix(), t.Nanosecond()
	switch {
	case sec < minSec || sec == minSec && nsec < minNsec:
		return math.MinInt64, false
	case sec > maxSec || sec == maxSec && nsec > maxNsec:
		return math.MaxInt64, false
	}
	return t.UnixNano(), true
}

// Scheduler is a deterministic discrete-event scheduler. It is not safe for
// concurrent use; the simulation drives it from a single goroutine.
type Scheduler struct {
	now    time.Time
	queue  Queue[int32] // event slots by (instant, schedule order)
	events []event
	free   []int32 // slots whose items have left the queue
	fired  uint64
}

// NewScheduler returns a scheduler whose clock starts at start.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// instant is the time an item at atNs fires, in the clock's location.
func (s *Scheduler) instant(atNs int64) time.Time {
	return time.Unix(0, atNs).In(s.now.Location())
}

// At schedules fn to run at the given virtual time. Scheduling in the past
// is an error: the simulation would lose causal ordering. So is an instant
// UnixNano cannot name (before 1677-09-21 or after 2262-04-11): the queue
// orders by it.
func (s *Scheduler) At(at time.Time, fn func()) (Handle, error) {
	if fn == nil {
		return Handle{}, fmt.Errorf("simtime: schedule nil callback at %v", at)
	}
	if at.Before(s.now) {
		return Handle{}, fmt.Errorf("simtime: schedule at %v is before now %v", at, s.now)
	}
	atNs, ok := unixNanos(at)
	if !ok {
		return Handle{}, fmt.Errorf("simtime: schedule at %v is outside UnixNano's range", at)
	}
	slot := int32(len(s.events))
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.events = append(s.events, event{})
	}
	seq := s.queue.Push(atNs, slot)
	s.events[slot] = event{fn: fn, seq: seq}
	return Handle{slot: slot, seq: seq}, nil
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
	return true
}

// Step executes the next pending event, advancing the clock to its
// scheduled time. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	for s.queue.Len() > 0 {
		e := s.queue.Pop()
		ev := &s.events[e.Val]
		// Recycle before firing: the item is out of the queue, so the
		// callback can schedule freely, even into this slot.
		s.free = append(s.free, e.Val)
		if ev.seq != e.Seq {
			continue // cancelled
		}
		fn := ev.fn
		s.now = s.instant(e.AtNs)
		*ev = event{}
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
func (s *Scheduler) RunUntil(deadline time.Time) {
	tNs, inRange := unixNanos(deadline)
	for {
		// Past the range every event is due, before it none.
		e, ok := s.peek()
		if !ok || e.AtNs > tNs || !inRange && tNs == math.MinInt64 {
			break
		}
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
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

// peek returns the queue item of the earliest pending event, discarding
// cancelled items from the head of the queue on the way.
func (s *Scheduler) peek() (Item[int32], bool) {
	for s.queue.Len() > 0 {
		e := s.queue.Min()
		if s.events[e.Val].seq == e.Seq {
			return e, true
		}
		s.queue.Pop()
		s.free = append(s.free, e.Val)
	}
	return Item[int32]{}, false
}
