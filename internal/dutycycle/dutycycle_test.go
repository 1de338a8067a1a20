package dutycycle

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

func mustRegulator(t *testing.T, limit float64, window time.Duration) *Regulator {
	t.Helper()
	r, err := NewRegulator(limit, window)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLimitForFrequency(t *testing.T) {
	tests := []struct {
		mhz  float64
		want float64
	}{
		{868.1, LimitG1},
		{868.3, LimitG1},
		{869.0, LimitG2},
		{869.525, LimitG3},
	}
	for _, tt := range tests {
		got, err := LimitForFrequency(tt.mhz * 1e6)
		if err != nil {
			t.Fatalf("%.3f MHz: %v", tt.mhz, err)
		}
		if got != tt.want {
			t.Errorf("%.3f MHz limit = %v, want %v", tt.mhz, got, tt.want)
		}
	}
	if _, err := LimitForFrequency(915e6); err == nil {
		t.Error("915 MHz: want error (not an EU868 sub-band)")
	}
}

func TestNewRegulatorValidation(t *testing.T) {
	if _, err := NewRegulator(0, time.Hour); err == nil {
		t.Error("limit 0: want error")
	}
	if _, err := NewRegulator(1.5, time.Hour); err == nil {
		t.Error("limit 1.5: want error")
	}
	if _, err := NewRegulator(0.01, 0); err == nil {
		t.Error("window 0: want error")
	}
}

func TestBudget(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	if got, want := r.Budget(), 36*time.Second; got != want {
		t.Errorf("1%% hourly budget = %v, want %v", got, want)
	}
}

func TestCanTransmitUntilBudgetExhausted(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	now := t0
	var spent time.Duration
	tx := 4 * time.Second
	for spent+tx <= r.Budget() {
		if !r.CanTransmit(now, tx) {
			t.Fatalf("transmission at %v spent %v rejected under budget", now, spent)
		}
		r.Record(now, tx)
		spent += tx
		now = now.Add(10 * time.Second)
	}
	if r.CanTransmit(now, tx) {
		t.Fatalf("transmission beyond the %v budget allowed", r.Budget())
	}
}

func TestBudgetRecoversAsWindowSlides(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	r.Record(t0, 36*time.Second) // exhaust the whole budget at once
	if r.CanTransmit(t0.Add(36*time.Second), time.Second) {
		t.Fatal("budget should be exhausted right after the burst")
	}
	// While the window's trailing edge crosses the burst, only part of it
	// still counts. (Queries are time-monotone: the regulator prunes.)
	mid := t0.Add(time.Hour + 18*time.Second) // window starts at t0+18s
	if got := r.usedAt(mid); got != 18*time.Second {
		t.Errorf("mid-window used = %v, want 18s", got)
	}
	// One hour after the burst *ended*, it has fully left the window.
	after := t0.Add(36*time.Second + time.Hour)
	if !r.CanTransmit(after, 36*time.Second) {
		t.Fatal("budget should be fully recovered one window after the burst")
	}
}

func TestNextAllowed(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	// Immediately allowed when idle.
	at, err := r.NextAllowed(t0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Equal(t0) {
		t.Errorf("idle NextAllowed = %v, want now", at)
	}
	// Exhaust the budget. A 1 s frame starting at t fits when the window
	// ending at t+1s holds at most 35 s of the burst: 36-(t+1-3600) <= 35
	// gives t >= 3600 s, exactly one window after the burst began.
	r.Record(t0, 36*time.Second)
	now := t0.Add(40 * time.Second)
	at, err = r.NextAllowed(now, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := t0.Add(time.Hour)
	if d := at.Sub(want); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("NextAllowed = %v, want ≈%v", at, want)
	}
	if !r.CanTransmit(at, time.Second) {
		t.Error("transmission at NextAllowed instant still rejected")
	}
	// An impossible frame errors.
	if _, err := r.NextAllowed(now, time.Minute); err == nil {
		t.Error("airtime above whole budget: want error")
	}
}

func TestUtilizationAndDutyCycle(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	r.Record(t0, 18*time.Second) // half the budget
	now := t0.Add(time.Minute)
	if u := r.Utilization(now); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ≈0.5", u)
	}
}

func TestLifetimeAirtime(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	r.Record(t0, 2*time.Second)
	r.Record(t0.Add(2*time.Hour), 3*time.Second)
	// Pruning must not affect lifetime accounting.
	r.CanTransmit(t0.Add(5*time.Hour), time.Second)
	if got := r.LifetimeAirtime(); got != 5*time.Second {
		t.Errorf("lifetime = %v, want 5s", got)
	}
}

func TestRecordIgnoresNonPositive(t *testing.T) {
	r := mustRegulator(t, 0.01, time.Hour)
	r.Record(t0, 0)
	r.Record(t0, -time.Second)
	if got := r.LifetimeAirtime(); got != 0 {
		t.Errorf("lifetime after no-op records = %v, want 0", got)
	}
}

// neverExceeds replays a schedule of transmissions gated by CanTransmit,
// one every gap, and reports whether the rolling-window usage stays within
// the budget at each admitted transmission's end.
func neverExceeds(gapsMS []uint16, airtimesMS []uint8) bool {
	r, err := NewRegulator(0.01, 10*time.Minute)
	if err != nil {
		return false
	}
	now := t0
	for i := 0; i < min(len(gapsMS), len(airtimesMS)); i++ {
		now = now.Add(time.Duration(gapsMS[i]) * time.Millisecond)
		air := time.Duration(airtimesMS[i]) * time.Millisecond * 10
		if r.CanTransmit(now, air) {
			r.Record(now, air)
		}
		if r.usedAt(now.Add(air)) > r.Budget() {
			return false
		}
	}
	return true
}

// TestPropertyNeverExceedsBudget: any schedule of transmissions gated by
// CanTransmit keeps the rolling-window duty cycle at or under the limit.
func TestPropertyNeverExceedsBudget(t *testing.T) {
	if err := quick.Check(neverExceeds, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOverlapPeakIsChecked replays a schedule a quick seed once found:
// transmissions overlap, and the regulator admitted a 2.08 s frame at step
// 17 while an old record left the window in the middle of it, so 0.18 s
// later the window held 6.433 s against a 6 s budget.
func TestOverlapPeakIsChecked(t *testing.T) {
	gaps := []uint16{0x9cfc, 0x1d3, 0x468b, 0xc19a, 0x502b, 0xdef3, 0xf276, 0xf3fe, 0x31ef, 0x71d6,
		0xbfce, 0x332a, 0x7940, 0xf6f8, 0x49ea, 0xb77f, 0xd371, 0x2a3b, 0xb7, 0x8498, 0x99bd, 0xb2d9,
		0xf169, 0x1edd, 0xa80a, 0x3978, 0xecc2, 0x6833, 0xb938, 0xc6e8, 0xf8cd, 0x385e, 0xe1be, 0x9733,
		0x95f9, 0x9dd6, 0x3933}
	airtimes := []uint8{0x7b, 0xf8, 0x9a, 0x4f, 0x68, 0x69, 0xcb, 0x5f, 0x34, 0xf2, 0x13, 0x1e, 0x82,
		0x7f, 0x70, 0xc3, 0x7e, 0xd0, 0x1d, 0xda, 0x51, 0xb7, 0xac, 0x74, 0x5e}
	if !neverExceeds(gaps, airtimes) {
		t.Error("the window exceeds the budget after an admitted transmission")
	}
}

// FuzzRegulatorNeverExceedsBudget searches for a schedule, overlapping or
// not, after which some window holds more airtime than the budget. A step
// is three bytes: the gap since the last step in ms, big-endian, then the
// airtime in units of 10 ms; the transmission goes out if CanTransmit
// admits it. After each step the model sums every admitted transmission's
// overlap with each window ending at a breakpoint {s, e, s+W, e+W} at or
// after now; usage is piecewise linear between breakpoints, so those
// windows bound every other, and earlier ones no later step can change.
// The limit is 1 % to 10 % over a 10-minute window, and a schedule's first
// 256 steps are played. The first seed is TestOverlapPeakIsChecked's
// schedule.
func FuzzRegulatorNeverExceedsBudget(f *testing.F) {
	f.Add(uint8(0), []byte{
		0x9c, 0xfc, 0x7b, 0x01, 0xd3, 0xf8, 0x46, 0x8b, 0x9a, 0xc1, 0x9a, 0x4f, 0x50, 0x2b, 0x68,
		0xde, 0xf3, 0x69, 0xf2, 0x76, 0xcb, 0xf3, 0xfe, 0x5f, 0x31, 0xef, 0x34, 0x71, 0xd6, 0xf2,
		0xbf, 0xce, 0x13, 0x33, 0x2a, 0x1e, 0x79, 0x40, 0x82, 0xf6, 0xf8, 0x7f, 0x49, 0xea, 0x70,
		0xb7, 0x7f, 0xc3, 0xd3, 0x71, 0x7e, 0x2a, 0x3b, 0xd0, 0x00, 0xb7, 0x1d, 0x84, 0x98, 0xda,
		0x99, 0xbd, 0x51, 0xb2, 0xd9, 0xb7, 0xf1, 0x69, 0xac, 0x1e, 0xdd, 0x74, 0xa8, 0x0a, 0x5e,
	})
	f.Add(uint8(9), []byte{0, 0, 200, 0, 100, 200, 0, 100, 200, 3, 232, 50})
	f.Fuzz(func(t *testing.T, limit uint8, schedule []byte) {
		const window = 10 * time.Minute
		r, err := NewRegulator(float64(1+limit%10)/100, window)
		if err != nil {
			t.Fatal(err)
		}
		type tx struct{ s, e time.Time }
		var sent []tx
		now := t0
		for steps := 0; steps < 256 && len(schedule) >= 3; steps, schedule = steps+1, schedule[3:] {
			now = now.Add(time.Duration(int(schedule[0])<<8|int(schedule[1])) * time.Millisecond)
			air := time.Duration(schedule[2]) * 10 * time.Millisecond
			if r.CanTransmit(now, air) {
				r.Record(now, air)
				if air > 0 {
					sent = append(sent, tx{now, now.Add(air)})
				}
			}
			// A transmission that left the window is in no window checked
			// from now on.
			sent = slices.DeleteFunc(sent, func(x tx) bool { return !x.e.After(now.Add(-window)) })
			for _, b := range sent {
				for _, at := range []time.Time{b.s, b.e, b.s.Add(window), b.e.Add(window)} {
					if at.Before(now) {
						continue
					}
					var used time.Duration
					for _, x := range sent {
						lo, hi := x.s, x.e
						if from := at.Add(-window); lo.Before(from) {
							lo = from
						}
						if hi.After(at) {
							hi = at
						}
						used += max(hi.Sub(lo), 0)
					}
					if used > r.Budget() {
						t.Fatalf("after %d transmissions, the window ending %v after the first holds %v, budget %v",
							len(sent), at.Sub(t0), used, r.Budget())
					}
				}
			}
		}
	})
}

// TestPropertyNextAllowedIsLegal: the instant NextAllowed returns must
// itself admit the transmission, for any prior burst schedule. (Earlier
// instants may also be legal between in-flight bursts — NextAllowed is
// documented as conservative there.)
func TestPropertyNextAllowedIsLegal(t *testing.T) {
	f := func(bursts []uint8) bool {
		r, err := NewRegulator(0.01, 10*time.Minute)
		if err != nil {
			return false
		}
		now := t0
		for _, b := range bursts {
			air := time.Duration(b) * 50 * time.Millisecond
			if air == 0 {
				continue
			}
			if r.CanTransmit(now, air) {
				r.Record(now, air)
			}
			now = now.Add(time.Duration(b) * time.Second)
		}
		want := 2 * time.Second
		at, err := r.NextAllowed(now, want)
		if err != nil {
			return false
		}
		if at.Before(now) {
			return false
		}
		return r.CanTransmit(at.Add(time.Microsecond), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
