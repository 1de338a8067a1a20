package forward

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestParseKindRoundTrip(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 5 {
		t.Fatalf("Kinds() = %v, want 5 strategies", kinds)
	}
	for _, k := range kinds {
		got, err := ParseKind(string(k))
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k, err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %q", k, got)
		}
	}
	if kinds[0] != KindProactive {
		t.Errorf("display order must lead with the default: %v", kinds)
	}
}

func TestParseKindUnknown(t *testing.T) {
	for _, bad := range []string{"", "Proactive", "dv", "icn "} {
		k, err := ParseKind(bad)
		if err == nil {
			t.Fatalf("ParseKind(%q) = %q, want error", bad, k)
		}
		// The message must name every accepted value — it is the -strategy
		// flag's usage hint.
		for _, want := range Kinds() {
			if !strings.Contains(err.Error(), string(want)) {
				t.Errorf("ParseKind(%q) error %q does not mention %q", bad, err, want)
			}
		}
	}
}

func TestDedupDisabled(t *testing.T) {
	var d Dedup // zero horizon: disabled
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if d.Duplicate(now, 42) {
			t.Fatal("disabled dedup reported a duplicate")
		}
	}
	if n := len(d.seen); n != 0 {
		t.Errorf("disabled dedup remembered %d fingerprints", n)
	}
}

func TestDedupHorizon(t *testing.T) {
	d := Dedup{Horizon: 10 * time.Second}
	now := time.Unix(0, 0)
	if d.Duplicate(now, 1) {
		t.Fatal("first sight reported as duplicate")
	}
	if !d.Duplicate(now.Add(5*time.Second), 1) {
		t.Fatal("repeat within the horizon not reported")
	}
	// The horizon measures from FIRST sight: the duplicate hit at +5s must
	// not have refreshed the timestamp, so at +10s the entry is stale.
	if d.Duplicate(now.Add(10*time.Second), 1) {
		t.Fatal("fingerprint still duplicate one full horizon after first sight")
	}
	if d.Duplicate(now, 2) {
		t.Fatal("distinct fingerprint reported as duplicate")
	}
	if n := len(d.seen); n != 2 {
		t.Errorf("remembered %d, want 2", n)
	}
}

func TestDedupSweep(t *testing.T) {
	d := Dedup{Horizon: time.Second}
	now := time.Unix(0, 0)
	for fp := uint64(0); fp < 300; fp++ {
		d.Duplicate(now, fp)
	}
	// An insert drops every fingerprint older than the horizon.
	d.Duplicate(now.Add(2*time.Second), 1000)
	if n := len(d.seen); n != 1 {
		t.Errorf("after sweep remembered %d, want 1 (only the fresh fingerprint)", n)
	}
}

// mapDedup is the Dedup this package shipped before it kept sightings in
// first-sight order: a map of each fingerprint's last recorded instant,
// swept of stale entries once it passes 256. TestDedupMatchesMapModel
// holds Dedup to it.
type mapDedup struct {
	horizon time.Duration
	seen    map[uint64]time.Time
}

func (d *mapDedup) Duplicate(now time.Time, fp uint64) bool {
	if last, ok := d.seen[fp]; ok && now.Sub(last) < d.horizon {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[uint64]time.Time)
	}
	d.seen[fp] = now
	if len(d.seen) > 256 {
		for k, v := range d.seen {
			if now.Sub(v) >= d.horizon {
				delete(d.seen, k)
			}
		}
	}
	return false
}

// TestDedupMatchesMapModel drives Dedup and the map it replaced with the
// same non-decreasing instants — equal instants, steps of exactly the
// horizon, bursts of more than 256 fingerprints inside one horizon, and
// quiet gaps — over fingerprints drawn from pools of several sizes, so
// repeats fall inside, at and past the horizon. Every answer must agree,
// and the oldest fingerprint Dedup holds must still be within the horizon.
func TestDedupMatchesMapModel(t *testing.T) {
	const horizon = 1500 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	maxLive := 0
	for run := 0; run < 10; run++ {
		d, m := Dedup{Horizon: horizon}, mapDedup{horizon: horizon}
		now := time.Unix(1_000_000, 0)
		pool := uint64(1) << (2 + run/2*3) // 4 to 16 384 fingerprints
		burst := run%2 == 1                // 1000 ops a millisecond apart at most
		dups := 0
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(100); {
			case burst && op%1000 != 0:
				now = now.Add(time.Duration(rng.Intn(2)) * time.Microsecond)
			case r < 40: // the same instant
			case r < 45:
				now = now.Add(horizon)
			case r < 48:
				now = now.Add(horizon - time.Nanosecond)
			case r < 50:
				now = now.Add(time.Duration(rng.Int63n(int64(10 * horizon))))
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(horizon / 20))))
			}
			fp := rng.Uint64() % pool
			got, want := d.Duplicate(now, fp), m.Duplicate(now, fp)
			if got != want {
				t.Fatalf("run %d op %d: Duplicate(%v, %d) = %v, map %v", run, op, now, fp, got, want)
			}
			if got {
				dups++
			}
			maxLive = max(maxLive, len(d.seen))
			if s := d.seen[0]; now.Sub(s.at) >= horizon {
				t.Fatalf("run %d op %d: Dedup holds %d from %v, past the horizon", run, op, s.fp, s.at)
			}
		}
		if dups == 0 {
			t.Errorf("run %d: no duplicates over a pool of %d", run, pool)
		}
	}
	if maxLive <= 256 {
		t.Errorf("at most %d fingerprints within the horizon: no burst passed the map's 256-entry sweep", maxLive)
	}
}

func TestSeenSetEvictsInFirstSightOrder(t *testing.T) {
	s := SeenSet[int]{Cap: 3}
	for k := 1; k <= 3; k++ {
		if s.Remember(k) {
			t.Fatalf("first sight of %d reported as a repeat", k)
		}
	}
	// Neither a repeat nor a fresh mark moves a key in the eviction order:
	// 1 is still the oldest and goes first.
	if !s.Remember(1) {
		t.Fatal("repeat of 1 not reported")
	}
	s.Mark(1, time.Unix(9, 0))
	s.Remember(4)
	if _, ok := s.At(1); ok {
		t.Error("1 survived although it was remembered first")
	}
	s.Remember(5)
	if _, ok := s.At(2); ok {
		t.Error("2 survived the second eviction")
	}
	for _, k := range []int{3, 4, 5} {
		if _, ok := s.At(k); !ok {
			t.Errorf("%d evicted out of order", k)
		}
	}
	if len(s.at) != 3 {
		t.Errorf("remembered %d, want the capacity 3", len(s.at))
	}
	// An evicted key is new again.
	if s.Remember(1) {
		t.Error("evicted key still reported as a repeat")
	}
}

func TestSeenSetMarkKeepsLatestTime(t *testing.T) {
	s := SeenSet[string]{Cap: 2}
	s.Mark("a", time.Unix(1, 0))
	s.Mark("a", time.Unix(5, 0))
	if at, ok := s.At("a"); !ok || !at.Equal(time.Unix(5, 0)) {
		t.Errorf("At(a) = %v, %v; want the latest mark", at, ok)
	}
	if _, ok := s.At("b"); ok {
		t.Error("unknown key reported as remembered")
	}
}
