package dutycycle

import (
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

// TestPropertyNeverExceedsBudget: any schedule of transmissions gated by
// CanTransmit keeps the rolling-window duty cycle at or under the limit.
func TestPropertyNeverExceedsBudget(t *testing.T) {
	f := func(gapsMS []uint16, airtimesMS []uint8) bool {
		r, err := NewRegulator(0.01, 10*time.Minute)
		if err != nil {
			return false
		}
		now := t0
		n := len(gapsMS)
		if len(airtimesMS) < n {
			n = len(airtimesMS)
		}
		for i := 0; i < n; i++ {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
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
