// Package dutycycle enforces ISM-band airtime regulations. LoRa in the
// EU868 band is limited to a per-sub-band duty cycle (1% on the common
// g1 sub-band: at most 36 s of airtime per rolling hour). The mesh node
// consults a Regulator before every transmission and defers frames that
// would exceed the budget, which is what keeps a beaconing mesh legal.
package dutycycle

import (
	"fmt"
	"time"
)

// EU868 sub-band duty-cycle limits.
const (
	// LimitG1 applies to 868.0–868.6 MHz (the default mesh channel).
	LimitG1 = 0.01
	// LimitG2 applies to 868.7–869.2 MHz.
	LimitG2 = 0.001
	// LimitG3 applies to 869.4–869.65 MHz (the high-power sub-band).
	LimitG3 = 0.10
)

// DefaultWindow is the rolling accounting window used by the regulation.
const DefaultWindow = time.Hour

// LimitForFrequency returns the EU868 duty-cycle limit for a carrier
// frequency, or an error for frequencies outside the regulated sub-bands.
func LimitForFrequency(freqHz float64) (float64, error) {
	switch {
	case freqHz >= 868.0e6 && freqHz <= 868.6e6:
		return LimitG1, nil
	case freqHz >= 868.7e6 && freqHz <= 869.2e6:
		return LimitG2, nil
	case freqHz >= 869.4e6 && freqHz <= 869.65e6:
		return LimitG3, nil
	default:
		return 0, fmt.Errorf("dutycycle: %.3f MHz is outside the EU868 sub-bands", freqHz/1e6)
	}
}

// record is one past transmission, in integer nanoseconds since the Unix
// epoch. The regulator sits on the per-frame hot path (every queue pump
// consults it, and NextAllowed binary-searches through CanTransmit), so
// interval math runs on int64 rather than time.Time.
type record struct {
	start, end int64
}

// Regulator tracks transmissions over a rolling window and answers whether
// a new transmission fits the duty-cycle budget. It is not safe for
// concurrent use; each node owns one regulator per sub-band.
type Regulator struct {
	limit   float64
	window  int64 // ns
	budget  int64 // ns per window, precomputed from limit*window
	history []record
	// histSum is the total duration of every record still in history
	// (pruned or not); it upper-bounds the usage of any window and feeds
	// CanTransmit's O(1) under-budget fast path.
	histSum int64
	// total airtime ever recorded, for compliance reporting.
	lifetime time.Duration
}

// NewRegulator returns a regulator enforcing the given duty-cycle limit
// over the given rolling window. A limit of 1 effectively disables
// regulation (useful for ablations).
func NewRegulator(limit float64, window time.Duration) (*Regulator, error) {
	if limit <= 0 || limit > 1 {
		return nil, fmt.Errorf("dutycycle: limit %v out of (0,1]", limit)
	}
	if window <= 0 {
		return nil, fmt.Errorf("dutycycle: window %v must be positive", window)
	}
	return &Regulator{
		limit:  limit,
		window: int64(window),
		budget: int64(float64(window) * limit),
	}, nil
}

// Budget returns the airtime allowed per window.
func (r *Regulator) Budget() time.Duration {
	return time.Duration(r.budget)
}

// usedAt returns the airtime counted against the window ending at t,
// assuming no transmissions after the recorded history.
func (r *Regulator) usedAt(t time.Time) time.Duration {
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
func (r *Regulator) prune(now int64) {
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
func (r *Regulator) usedWithCandidate(t, candStart, candEnd int64) int64 {
	from := t - r.window
	used := overlapNs(candStart, candEnd, from, t)
	for _, rec := range r.history {
		used += overlapNs(rec.start, rec.end, from, t)
	}
	return used
}

// overlapNs returns the length of [s,e] ∩ [from,t].
func overlapNs(s, e, from, t int64) int64 {
	if s < from {
		s = from
	}
	if e > t {
		e = t
	}
	if e > s {
		return e - s
	}
	return 0
}

// CanTransmit reports whether a transmission of the given airtime starting
// at now fits the budget at every future instant. Window usage including
// the candidate peaks where some transmission ends, so it suffices to
// check the candidate's own end and the ends of recorded transmissions
// that finish after it starts.
func (r *Regulator) CanTransmit(now time.Time, airtime time.Duration) bool {
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
	if r.usedWithCandidate(end, n, end) > r.budget {
		return false
	}
	for _, rec := range r.history {
		if rec.end > end {
			if r.usedWithCandidate(rec.end, n, end) > r.budget {
				return false
			}
		}
	}
	return true
}

// Record registers a transmission of the given airtime starting at now.
// Callers record after the decision to transmit; the regulator does not
// enforce that CanTransmit was consulted (ablations transmit regardless
// and then measure violations).
func (r *Regulator) Record(now time.Time, airtime time.Duration) {
	if airtime <= 0 {
		return
	}
	n := now.UnixNano()
	r.prune(n)
	r.history = append(r.history, record{start: n, end: n + int64(airtime)})
	r.histSum += int64(airtime)
	r.lifetime += airtime
}

// NextAllowed returns the earliest instant at or after now when a
// transmission of the given airtime fits the budget. If the airtime alone
// exceeds the whole budget it returns an error: the frame can never be
// sent legally and must be re-chunked.
func (r *Regulator) NextAllowed(now time.Time, airtime time.Duration) (time.Time, error) {
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
func (r *Regulator) Utilization(now time.Time) float64 {
	b := r.Budget()
	if b == 0 {
		return 0
	}
	return float64(r.usedAt(now)) / float64(b)
}

// LifetimeAirtime returns all airtime ever recorded.
func (r *Regulator) LifetimeAirtime() time.Duration { return r.lifetime }
