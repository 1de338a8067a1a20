package routing

import (
	"testing"
	"time"

	"repro/internal/packet"
)

// suppressConfig enables the dead-neighbor suppression list with short,
// test-friendly windows.
func suppressConfig() Config {
	return Config{
		EntryTTL:       time.Minute,
		Poisoning:      true,
		SuppressAfter:  2,
		SuppressWindow: time.Minute,
		SuppressHold:   30 * time.Second,
		SuppressMax:    4,
	}
}

func learn(t *testing.T, tbl *Table, now time.Time, from packet.Address) {
	t.Helper()
	if !tbl.ApplyHello(now, from, packet.RoleDefault, 10, nil) {
		t.Fatalf("HELLO from %v not applied", from)
	}
}

func TestSuppressionQuarantinesFlapper(t *testing.T) {
	tbl := NewTable(0x01, suppressConfig())
	now := t0

	// First withdrawal: one strike, no quarantine yet.
	learn(t, tbl, now, 0x02)
	tbl.RemoveNeighbor(now, 0x02)
	if tbl.IsSuppressed(now, 0x02) {
		t.Fatal("quarantined after a single strike")
	}
	now = now.Add(5 * time.Second)
	learn(t, tbl, now, 0x02) // link flaps back up... hold-down allows metric-1

	// Second withdrawal within the window: quarantined.
	now = now.Add(5 * time.Second)
	tbl.RemoveNeighbor(now, 0x02)
	if !tbl.IsSuppressed(now, 0x02) {
		t.Fatal("two strikes within the window did not quarantine")
	}

	// While quarantined, the flapper's HELLOs are ignored.
	if tbl.ApplyHello(now, 0x02, packet.RoleDefault, 10, nil) {
		t.Fatal("HELLO from quarantined neighbor was applied")
	}
	if _, ok := tbl.NextHop(0x02); ok {
		t.Fatal("quarantined neighbor has a usable route")
	}

	// After the hold expires the neighbor may rejoin.
	now = now.Add(31 * time.Second)
	if tbl.IsSuppressed(now, 0x02) {
		t.Fatal("still suppressed after the hold expired")
	}
	learn(t, tbl, now, 0x02)
	if _, ok := tbl.NextHop(0x02); !ok {
		t.Fatal("recovered neighbor did not get a route")
	}
}

func TestSuppressionStrikesExpireWithWindow(t *testing.T) {
	tbl := NewTable(0x01, suppressConfig())
	now := t0
	learn(t, tbl, now, 0x02)
	tbl.RemoveNeighbor(now, 0x02)

	// The second strike lands after the window: no quarantine.
	now = now.Add(2 * time.Minute)
	learn(t, tbl, now, 0x02)
	tbl.RemoveNeighbor(now, 0x02)
	if tbl.IsSuppressed(now, 0x02) {
		t.Fatal("stale strike counted toward quarantine")
	}
}

func TestSuppressionListBounded(t *testing.T) {
	cfg := suppressConfig()
	cfg.SuppressMax = 2
	tbl := NewTable(0x01, cfg)
	now := t0
	// Strike five distinct neighbors once each; the tracking list must
	// never exceed the bound.
	for i := 0; i < 5; i++ {
		via := packet.Address(0x10 + i)
		learn(t, tbl, now, via)
		tbl.RemoveNeighbor(now, via)
		if len(tbl.suppressed) > 2 {
			t.Fatalf("suppression list grew to %d entries, bound is 2", len(tbl.suppressed))
		}
		now = now.Add(time.Second)
	}
}

func TestSuppressionDisabledByDefault(t *testing.T) {
	tbl := NewTable(0x01, DefaultConfig())
	now := t0
	for i := 0; i < 10; i++ {
		learn(t, tbl, now, 0x02)
		tbl.RemoveNeighbor(now, 0x02)
		now = now.Add(time.Second)
	}
	if tbl.IsSuppressed(now, 0x02) {
		t.Fatal("suppression active without SuppressAfter")
	}
	if len(tbl.suppressed) != 0 {
		t.Fatal("strikes recorded with suppression disabled")
	}
}
