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
	window int64 // ns
	budget int64 // ns per window, precomputed from limit*window
	// history is a ring of the records still able to count against a
	// window, in start order: record i is history[(head+i)%len], i < n.
	// Record drops expired records from its head in place and grows it by
	// an eighth only when full, so it keeps about the capacity of the
	// busiest window the traffic reached, not append's doubling of it.
	history []record
	head, n int
	// histSum is the total duration of every record still in history; it
	// upper-bounds the usage of any window and feeds CanTransmit's O(1)
	// under-budget fast path.
	histSum int64
	// maxAir is the longest airtime ever recorded: a record that started
	// maxAir before an instant is off the air by then.
	maxAir int64
	// lastEnd is the latest end ever recorded: no recorded transmission is
	// on the air after it.
	lastEnd int64
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
		window: int64(window),
		budget: int64(float64(window) * limit),
	}, nil
}

// Budget returns the airtime allowed per window.
func (r *Regulator) Budget() time.Duration {
	return time.Duration(r.budget)
}

// at returns the i-th record in history, 0 being the oldest.
func (r *Regulator) at(i int) record {
	if i += r.head; i >= len(r.history) {
		i -= len(r.history)
	}
	return r.history[i]
}

// usedAt returns the airtime counted against the window ending at t,
// assuming no transmissions after the recorded history. It starts from
// histSum and corrects only the records the window clips: those that
// started before it (a prefix, in start order) and those still on the
// air at t (a suffix no longer than the records started within maxAir of
// t), so it does not walk the history.
func (r *Regulator) usedAt(t time.Time) time.Duration {
	tn := t.UnixNano()
	from := tn - r.window
	used := r.histSum
	i := 0
	for ; i < r.n; i++ {
		rec := r.at(i)
		if rec.start >= from {
			break
		}
		used -= rec.end - rec.start - overlapNs(rec.start, rec.end, from, tn)
	}
	for j := r.n - 1; j >= i; j-- {
		rec := r.at(j)
		if rec.start <= tn-r.maxAir {
			break
		}
		used -= min(rec.end-rec.start, max(rec.end-tn, 0))
	}
	return time.Duration(used)
}

// prune drops records that can no longer affect any window at or after
// now from the head of the history. Records are in start order, so one
// that ended earlier may stay behind a longer one until that one expires;
// it counts against no window at or after now either. It must only be
// called with the actual clock (from Record), never with a speculative
// future instant: NextAllowed probes future times, and pruning against a
// probe would discard records still counted at the present.
func (r *Regulator) prune(now int64) {
	from := now - r.window
	for ; r.n > 0; r.n-- {
		rec := r.history[r.head]
		if rec.end > from {
			return
		}
		r.histSum -= rec.end - rec.start
		if r.head++; r.head == len(r.history) {
			r.head = 0
		}
	}
}

// push appends rec to the history, growing the ring when full.
func (r *Regulator) push(rec record) {
	if r.n == len(r.history) {
		grown := make([]record, r.n+r.n/8+1)
		for i := range r.n {
			grown[i] = r.at(i)
		}
		r.history, r.head = grown, 0
	}
	r.history[(r.head+r.n)%len(r.history)] = rec
	r.n++
}

// usedWithCandidate returns the airtime counted against the window ending
// at t, including a candidate transmission [candStart, candEnd] that has
// not been recorded yet. Unlike usedAt, recorded intervals are clipped
// only by the window — their scheduled future portions count too, so
// admission control sees in-flight transmissions in full.
func (r *Regulator) usedWithCandidate(t, candStart, candEnd int64) int64 {
	from := t - r.window
	used := overlapNs(candStart, candEnd, from, t)
	for i := range r.n {
		rec := r.at(i)
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
// the candidate is piecewise linear in the window's end t. Its slope falls
// only where a transmission ends or where one starts leaving the window, at
// its start plus the window, and past the last end nothing is on the air,
// so usage only falls. Its peaks after now therefore lie at those instants
// up to the last end, and only they are checked. (Were records never to
// overlap, as a half-duplex node's do not, the ends alone would do; the
// regulator does not rely on it.)
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
	last := max(end, r.lastEnd)
	peak := func(t int64) bool { return t > n && t <= last && r.usedWithCandidate(t, n, end) > r.budget }
	if peak(end) || peak(n+r.window) {
		return false
	}
	for i := range r.n {
		if rec := r.at(i); peak(rec.end) || peak(rec.start+r.window) {
			return false
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
	r.push(record{start: n, end: n + int64(airtime)})
	r.lastEnd = max(r.lastEnd, n+int64(airtime))
	r.maxAir = max(r.maxAir, int64(airtime))
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
	if e := time.Unix(0, r.lastEnd); e.After(lo) {
		lo = e
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
