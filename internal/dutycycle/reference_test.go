package dutycycle

import (
	"fmt"
	"testing"
	"time"
)

// copyPruneRegulator is the regulator whose Record copies every record
// still in the window into a fresh prefix of its history, kept verbatim as
// the reference the head-pruned ring is held to.
type copyPruneRegulator struct {
	limit   float64
	window  int64 // ns
	budget  int64 // ns per window, precomputed from limit*window
	history []record
	// histSum is the total duration of every record still in history
	// (pruned or not); it upper-bounds the usage of any window and feeds
	// CanTransmit's O(1) under-budget fast path.
	histSum int64
	// lastEnd is the latest end ever recorded: no recorded transmission is
	// on the air after it.
	lastEnd int64
	// total airtime ever recorded, for compliance reporting.
	lifetime time.Duration
}

// Budget returns the airtime allowed per window.
func (r *copyPruneRegulator) Budget() time.Duration {
	return time.Duration(r.budget)
}

// usedAt returns the airtime counted against the window ending at t,
// assuming no transmissions after the recorded history.
func (r *copyPruneRegulator) usedAt(t time.Time) time.Duration {
	tn := t.UnixNano()
	from := tn - r.window
	var used int64
	for _, rec := range r.history {
		lo, hi := rec.start, rec.end
		if lo < from {
			lo = from
		}
		if hi > tn {
			hi = tn
		}
		if hi > lo {
			used += hi - lo
		}
	}
	return time.Duration(used)
}

// prune drops records that can no longer affect any window at or after now.
// It must only be called with the actual clock (from Record), never with a
// speculative future instant: NextAllowed probes future times, and pruning
// against a probe would discard records still counted at the present.
func (r *copyPruneRegulator) prune(now int64) {
	from := now - r.window
	kept := r.history[:0]
	var sum int64
	for _, rec := range r.history {
		if rec.end > from {
			kept = append(kept, rec)
			sum += rec.end - rec.start
		}
	}
	r.history = kept
	r.histSum = sum
}

// usedWithCandidate returns the airtime counted against the window ending
// at t, including a candidate transmission [candStart, candEnd] that has
// not been recorded yet. Unlike usedAt, recorded intervals are clipped
// only by the window — their scheduled future portions count too, so
// admission control sees in-flight transmissions in full.
func (r *copyPruneRegulator) usedWithCandidate(t, candStart, candEnd int64) int64 {
	from := t - r.window
	used := overlapNs(candStart, candEnd, from, t)
	for _, rec := range r.history {
		used += overlapNs(rec.start, rec.end, from, t)
	}
	return used
}

// CanTransmit reports whether a transmission of the given airtime starting
// at now fits the budget at every future instant. Window usage including
// the candidate is piecewise linear in the window's end t. Its slope falls
// only where a transmission ends or where one starts leaving the window, at
// its start plus the window, and past the last end nothing is on the air,
// so usage only falls. Its peaks after now therefore lie at those instants
// up to the last end, and only they are checked. (Were records never to
// overlap, as a half-duplex node's do not, the ends alone would do; the
// regulator does not rely on it.)
func (r *copyPruneRegulator) CanTransmit(now time.Time, airtime time.Duration) bool {
	a := int64(airtime)
	if a > r.budget {
		return false
	}
	// Fast path: every window's usage is bounded by the total duration of
	// the records still in history plus the candidate, however the
	// intervals fall. An under-utilized node (the common case away from
	// the regulatory limit) admits in O(1).
	if r.histSum+a <= r.budget {
		return true
	}
	n := now.UnixNano()
	end := n + a
	last := max(end, r.lastEnd)
	peak := func(t int64) bool { return t > n && t <= last && r.usedWithCandidate(t, n, end) > r.budget }
	if peak(end) || peak(n+r.window) {
		return false
	}
	for _, rec := range r.history {
		if peak(rec.end) || peak(rec.start+r.window) {
			return false
		}
	}
	return true
}

// Record registers a transmission of the given airtime starting at now.
// Callers record after the decision to transmit; the regulator does not
// enforce that CanTransmit was consulted (ablations transmit regardless
// and then measure violations).
func (r *copyPruneRegulator) Record(now time.Time, airtime time.Duration) {
	if airtime <= 0 {
		return
	}
	n := now.UnixNano()
	r.prune(n)
	r.history = append(r.history, record{start: n, end: n + int64(airtime)})
	r.lastEnd = max(r.lastEnd, n+int64(airtime))
	r.histSum += int64(airtime)
	r.lifetime += airtime
}

// NextAllowed returns the earliest instant at or after now when a
// transmission of the given airtime fits the budget. If the airtime alone
// exceeds the whole budget it returns an error: the frame can never be
// sent legally and must be re-chunked.
func (r *copyPruneRegulator) NextAllowed(now time.Time, airtime time.Duration) (time.Time, error) {
	if airtime > r.Budget() {
		return time.Time{}, fmt.Errorf("dutycycle: airtime %v exceeds the whole %v budget", airtime, r.Budget())
	}
	if r.CanTransmit(now, airtime) {
		return now, nil
	}
	// Past the end of the last recorded transmission, window usage is
	// nonincreasing in time, so admissibility is monotone there and a
	// binary search finds the earliest legal start. (Gaps between
	// in-flight transmissions before that point are conservatively
	// skipped; mesh nodes are half-duplex and do not schedule into them
	// anyway.) Every record has left the window after lastEnd+window.
	lo := now
	for _, rec := range r.history {
		if e := time.Unix(0, rec.end); e.After(lo) {
			lo = e
		}
	}
	if r.CanTransmit(lo, airtime) {
		return lo, nil
	}
	hi := lo.Add(time.Duration(r.window))
	for i := 0; i < 64 && hi.Sub(lo) > time.Microsecond; i++ {
		mid := lo.Add(hi.Sub(lo) / 2)
		if r.CanTransmit(mid, airtime) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// Utilization returns the fraction of the budget consumed in the window
// ending at now (1.0 = at the regulatory limit).
func (r *copyPruneRegulator) Utilization(now time.Time) float64 {
	b := r.Budget()
	if b == 0 {
		return 0
	}
	return float64(r.usedAt(now)) / float64(b)
}

// LifetimeAirtime returns all airtime ever recorded.
func (r *copyPruneRegulator) LifetimeAirtime() time.Duration { return r.lifetime }

// FuzzRegulatorMatchesCopyPrune holds the head-pruned ring to the
// copy-prune regulator on one clock: after every step both answer
// CanTransmit and NextAllowed alike for the step's airtime and for a 1 s
// frame, and Utilization, LifetimeAirtime and Budget alike, at now and
// at the step's end. A step is four bytes: the gap since the last step in
// units of 10 ms, big-endian (up to 11 minutes, past the 10-minute
// window), the airtime in units of 20 ms, and a flag whose low bit
// records the transmission even when CanTransmit refuses it, as an
// ablation does, so records overlap and stay behind longer ones. The
// limit is 1 % to 10 %, and a schedule's first 512 steps are played.
func FuzzRegulatorMatchesCopyPrune(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 200, 1, 0, 1, 10, 1, 0, 1, 10, 1, 0, 200, 50, 0, 1, 0, 100, 1})
	f.Add(uint8(9), []byte{0, 0, 255, 1, 0, 5, 1, 1, 0, 5, 1, 1, 234, 96, 1, 0, 0, 50, 1, 1})
	f.Add(uint8(4), []byte{0, 100, 100, 0, 0, 100, 100, 0, 0, 100, 100, 0, 0, 100, 100, 0, 0, 100, 100, 0})
	f.Fuzz(func(t *testing.T, limit uint8, schedule []byte) {
		const window = 10 * time.Minute
		r, err := NewRegulator(float64(1+limit%10)/100, window)
		if err != nil {
			t.Fatal(err)
		}
		ref := &copyPruneRegulator{window: r.window, budget: r.budget}
		now := t0
		for step := 0; step < 512 && len(schedule) >= 4; step, schedule = step+1, schedule[4:] {
			now = now.Add(time.Duration(int(schedule[0])<<8|int(schedule[1])) * 10 * time.Millisecond)
			air := time.Duration(schedule[2]) * 20 * time.Millisecond
			if r.CanTransmit(now, air) || schedule[3]&1 != 0 {
				r.Record(now, air)
				ref.Record(now, air)
			}
			for _, a := range []time.Duration{air, time.Second} {
				if got, want := r.CanTransmit(now, a), ref.CanTransmit(now, a); got != want {
					t.Fatalf("step %d: CanTransmit(%v) = %v, copy-prune %v", step, a, got, want)
				}
				at, err := r.NextAllowed(now, a)
				refAt, refErr := ref.NextAllowed(now, a)
				if !at.Equal(refAt) || fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("step %d: NextAllowed(%v) = %v, %v; copy-prune %v, %v", step, a, at.Sub(t0), err, refAt.Sub(t0), refErr)
				}
			}
			for _, at := range []time.Time{now, now.Add(air)} {
				if got, want := r.Utilization(at), ref.Utilization(at); got != want {
					t.Fatalf("step %d: Utilization at %v = %v, copy-prune %v", step, at.Sub(t0), got, want)
				}
			}
			if r.LifetimeAirtime() != ref.LifetimeAirtime() || r.Budget() != ref.Budget() {
				t.Fatalf("step %d: lifetime %v budget %v, copy-prune %v %v", step, r.LifetimeAirtime(), r.Budget(), ref.LifetimeAirtime(), ref.Budget())
			}
		}
	})
}
