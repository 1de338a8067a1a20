package routing

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/packet"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

func newTestTable(cfg Config) *Table { return NewTable(0x0001, cfg) }

// TestTableRowIs24BytesPointerFree pins the stored row: Entry's fields
// with the confirmation instant as UnixNano, 24 bytes, and nothing the
// collector must scan (a time.Time holds a *Location, which made the row
// 40 bytes with a pointer).
func TestTableRowIs24BytesPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(row{}); size != 24 {
		t.Fatalf("row is %d bytes, want 24", size)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("row%s is a %v, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(row{}), "")
}

func TestApplyHelloAddsNeighbor(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	if !tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 5, nil) {
		t.Fatal("first HELLO should change the table")
	}
	e, ok := tab.Lookup(0x0002)
	if !ok {
		t.Fatal("neighbor not installed")
	}
	if e.Via != 0x0002 || e.Metric != 1 {
		t.Errorf("neighbor entry = %+v, want via itself at metric 1", e)
	}
	next, ok := tab.NextHop(0x0002)
	if !ok || next != 0x0002 {
		t.Errorf("NextHop = %v,%v, want 0002,true", next, ok)
	}
	// Re-applying identical state must not count as change.
	if tab.ApplyHello(t0.Add(time.Minute), 0x0002, packet.RoleDefault, 5, nil) {
		t.Error("identical HELLO reported a change")
	}
}

func TestApplyHelloLearnsMultiHopRoute(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	adv := []packet.HelloEntry{{Addr: 0x0003, Metric: 1, Role: packet.RoleSink}}
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, adv)
	e, ok := tab.Lookup(0x0003)
	if !ok {
		t.Fatal("2-hop destination not installed")
	}
	if e.Via != 0x0002 || e.Metric != 2 || e.Role != packet.RoleSink {
		t.Errorf("entry = %+v, want via 0002 metric 2 role sink", e)
	}
}

func TestApplyHelloPrefersShorterRoute(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	// Long route first: D at 3 hops via B.
	tab.ApplyHello(t0, 0x000B, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 2, Role: packet.RoleDefault}})
	// Shorter route via C: D at 2 hops.
	tab.ApplyHello(t0, 0x000C, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1, Role: packet.RoleDefault}})
	e, _ := tab.Lookup(0x000D)
	if e.Via != 0x000C || e.Metric != 2 {
		t.Errorf("entry = %+v, want shorter route via 000C metric 2", e)
	}
	// A longer alternative must not displace it.
	tab.ApplyHello(t0, 0x000B, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 4, Role: packet.RoleDefault}})
	e, _ = tab.Lookup(0x000D)
	if e.Via != 0x000C || e.Metric != 2 {
		t.Errorf("entry after worse advert = %+v, want unchanged", e)
	}
}

func TestApplyHelloSameViaAcceptsWorseMetric(t *testing.T) {
	// If the next hop itself now reports a longer path, the route through
	// it *is* longer; the table must track that, not keep stale optimism.
	tab := newTestTable(DefaultConfig())
	tab.ApplyHello(t0, 0x000B, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1, Role: packet.RoleDefault}})
	tab.ApplyHello(t0, 0x000B, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 5, Role: packet.RoleDefault}})
	e, _ := tab.Lookup(0x000D)
	if e.Metric != 6 {
		t.Errorf("metric = %d, want 6 (track next hop's own degradation)", e.Metric)
	}
}

func TestApplyHelloIgnoresSelfAndBroadcast(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	if tab.ApplyHello(t0, 0x0001, packet.RoleDefault, 0, nil) {
		t.Error("HELLO from self should be ignored")
	}
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, []packet.HelloEntry{
		{Addr: 0x0001, Metric: 1},           // route to self
		{Addr: packet.Broadcast, Metric: 1}, // nonsense broadcast route
	})
	if _, ok := tab.Lookup(0x0001); ok {
		t.Error("installed a route to self")
	}
	if _, ok := tab.Lookup(packet.Broadcast); ok {
		t.Error("installed a route to broadcast")
	}
}

func TestMaxHopsCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHops = 3
	tab := newTestTable(cfg)
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, []packet.HelloEntry{
		{Addr: 0x0003, Metric: 2}, // becomes 3: allowed
		{Addr: 0x0004, Metric: 3}, // becomes 4: over the cap
	})
	if _, ok := tab.Lookup(0x0003); !ok {
		t.Error("3-hop route should be accepted at cap 3")
	}
	if _, ok := tab.Lookup(0x0004); ok {
		t.Error("4-hop route should be rejected at cap 3")
	}
}

func TestExpireStaleRemoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntryTTL = time.Minute
	tab := newTestTable(cfg)
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)
	tab.ApplyHello(t0.Add(30*time.Second), 0x0003, packet.RoleDefault, 0, nil)

	dead := tab.ExpireStale(t0.Add(70 * time.Second))
	if len(dead) != 1 || dead[0] != 0x0002 {
		t.Fatalf("dead = %v, want [0002]", dead)
	}
	if _, ok := tab.Lookup(0x0002); ok {
		t.Error("expired entry still present without poisoning")
	}
	if _, ok := tab.Lookup(0x0003); !ok {
		t.Error("fresh entry was expired")
	}
}

func TestExpireRefreshedEntrySurvives(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntryTTL = time.Minute
	tab := newTestTable(cfg)
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)
	tab.ApplyHello(t0.Add(50*time.Second), 0x0002, packet.RoleDefault, 0, nil) // refresh
	if dead := tab.ExpireStale(t0.Add(90 * time.Second)); len(dead) != 0 {
		t.Fatalf("refreshed entry expired: %v", dead)
	}
}

func TestPoisoningLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntryTTL = time.Minute
	cfg.Poisoning = true
	tab := newTestTable(cfg)
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)

	// Expiry poisons rather than removes.
	tab.ExpireStale(t0.Add(2 * time.Minute))
	e, ok := tab.Lookup(0x0002)
	if !ok || !e.Poisoned() {
		t.Fatalf("entry = %+v,%v, want poisoned", e, ok)
	}
	if _, ok := tab.NextHop(0x0002); ok {
		t.Error("NextHop returned a poisoned route")
	}
	// Poisoned routes are advertised at infinity.
	hs := tab.HelloEntries()
	if len(hs) != 1 || hs[0].Metric != MetricInfinity {
		t.Fatalf("hello entries = %v, want one at infinity", hs)
	}
	// The entry is held for poisonHold, then vanishes.
	tab.ExpireStale(t0.Add(2*time.Minute + tab.poisonHold()))
	if _, ok := tab.Lookup(0x0002); !ok {
		t.Error("poisoned entry dropped before its hold time")
	}
	tab.ExpireStale(t0.Add(2*time.Minute + tab.poisonHold() + time.Second))
	if _, ok := tab.Lookup(0x0002); ok {
		t.Error("poisoned entry survived its hold time")
	}
}

func TestPoisonedAdvertKillsRouteThroughSender(t *testing.T) {
	tab := newTestTable(Config{Poisoning: true})
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x0003, Metric: 1}})
	// The next hop announces 0003 unreachable.
	tab.ApplyHello(t0.Add(time.Second), 0x0002, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x0003, Metric: MetricInfinity}})
	if _, ok := tab.NextHop(0x0003); ok {
		t.Error("route through poisoning sender survived")
	}
	// But a poisoned advert from a node that is NOT our next hop is noise.
	tab.ApplyHello(t0.Add(2*time.Second), 0x0004, packet.RoleDefault, 0,
		[]packet.HelloEntry{{Addr: 0x0002, Metric: MetricInfinity}})
	if _, ok := tab.NextHop(0x0002); !ok {
		t.Error("poisoned advert from third party killed an unrelated route")
	}
}

func TestPoisonedRouteResurrects(t *testing.T) {
	tab := newTestTable(Config{EntryTTL: time.Minute, Poisoning: true})
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)
	poisonedAt := t0.Add(2 * time.Minute)
	tab.ExpireStale(poisonedAt)
	if e, _ := tab.Lookup(0x0002); !e.Poisoned() {
		t.Fatal("setup: entry should be poisoned")
	}
	// A fresh HELLO inside the hold resurrects the neighbor.
	tab.ExpireStale(poisonedAt.Add(tab.poisonHold() / 2))
	tab.ApplyHello(poisonedAt.Add(tab.poisonHold()/2), 0x0002, packet.RoleDefault, 0, nil)
	e, ok := tab.Lookup(0x0002)
	if !ok || e.Poisoned() || e.Metric != 1 {
		t.Errorf("entry = %+v,%v, want resurrected at metric 1", e, ok)
	}
}

func TestPoisonHoldDownRejectsStaleAdverts(t *testing.T) {
	tab := newTestTable(Config{EntryTTL: time.Minute, Poisoning: true})
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)
	poisonedAt := t0.Add(2 * time.Minute)
	tab.ExpireStale(poisonedAt)
	if e, _ := tab.Lookup(0x0002); !e.Poisoned() {
		t.Fatal("setup: entry should be poisoned")
	}
	// A third party still advertising the dead node must NOT resurrect it
	// (that is exactly the count-to-infinity feedback poisoning breaks),
	// at any point of the hold.
	for _, at := range []time.Time{poisonedAt.Add(time.Second), poisonedAt.Add(tab.poisonHold())} {
		tab.ExpireStale(at)
		tab.ApplyHello(at, 0x0003, packet.RoleDefault, 0,
			[]packet.HelloEntry{{Addr: 0x0002, Metric: 2}})
		if e, _ := tab.Lookup(0x0002); !e.Poisoned() {
			t.Errorf("stale multi-hop advert resurrected a poisoned route %v into the hold", at.Sub(poisonedAt))
		}
	}
	// Direct evidence (HELLO from the node itself) does resurrect.
	tab.ApplyHello(poisonedAt.Add(tab.poisonHold()), 0x0002, packet.RoleDefault, 0, nil)
	if e, _ := tab.Lookup(0x0002); e.Poisoned() || e.Metric != 1 {
		t.Errorf("direct HELLO did not resurrect: %+v", e)
	}
}

func TestRemoveNeighbor(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, []packet.HelloEntry{
		{Addr: 0x0003, Metric: 1}, {Addr: 0x0004, Metric: 2},
	})
	tab.ApplyHello(t0, 0x0005, packet.RoleDefault, 0, nil)
	dead := tab.RemoveNeighbor(t0, 0x0002)
	if len(dead) != 3 {
		t.Fatalf("dead = %v, want the neighbor and both routes through it", dead)
	}
	if _, ok := tab.NextHop(0x0005); !ok {
		t.Error("unrelated neighbor removed")
	}
}

func TestHelloEntriesRoundTripThroughNeighbor(t *testing.T) {
	// B learns A's table; routes must arrive at +1 metric.
	a := NewTable(0x000A, DefaultConfig())
	a.ApplyHello(t0, 0x000C, packet.RoleDefault, 0, nil) // A-C direct
	b := NewTable(0x000B, DefaultConfig())
	b.ApplyHello(t0, 0x000A, packet.RoleDefault, 0, a.HelloEntries())
	e, ok := b.Lookup(0x000C)
	if !ok || e.Metric != 2 || e.Via != 0x000A {
		t.Errorf("B's route to C = %+v,%v, want metric 2 via A", e, ok)
	}
}

func TestEntriesSortedAndCopied(t *testing.T) {
	tab := newTestTable(DefaultConfig())
	tab.ApplyHello(t0, 0x0009, packet.RoleDefault, 0, nil)
	tab.ApplyHello(t0, 0x0002, packet.RoleDefault, 0, nil)
	es := tab.Entries()
	if len(es) != 2 || es[0].Addr != 0x0002 || es[1].Addr != 0x0009 {
		t.Fatalf("entries = %v, want sorted by address", es)
	}
	es[0].Metric = 99
	if e, _ := tab.Lookup(0x0002); e.Metric == 99 {
		t.Error("Entries returned aliased storage")
	}
}

// TestPropertyMetricConsistency: for any sequence of random HELLOs, every
// entry satisfies 1 <= metric <= MaxHops (or infinity when poisoned), and
// NextHop only ever returns installed 1-hop neighbors... more precisely,
// the via of every entry is itself present as a neighbor entry or equals
// the entry address.
func TestPropertyMetricConsistency(t *testing.T) {
	cfg := DefaultConfig()
	f := func(senders []uint16, dests []uint16, metrics []uint8) bool {
		tab := newTestTable(cfg)
		n := len(senders)
		for i := 0; i < n; i++ {
			var adv []packet.HelloEntry
			if len(dests) > 0 && len(metrics) > 0 {
				adv = []packet.HelloEntry{{
					Addr:   packet.Address(dests[i%len(dests)]),
					Metric: metrics[i%len(metrics)],
					Role:   packet.RoleDefault,
				}}
			}
			tab.ApplyHello(t0.Add(time.Duration(i)*time.Second),
				packet.Address(senders[i]), packet.RoleDefault, 0, adv)
		}
		for _, e := range tab.Entries() {
			if e.Poisoned() {
				continue
			}
			if e.Metric < 1 || e.Metric > cfg.MaxHops {
				return false
			}
			if e.Metric == 1 && e.Via != e.Addr {
				return false
			}
			if via, ok := tab.Lookup(e.Via); !ok || via.Metric != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkApplyHello applies one full HELLO page per op, in mesh_secure's
// shape: a receiver holding 64 routes hears 15 neighbours in rotation, each
// paging out its own table as a sealed beacon does, its metric-0 self row
// first and then every destination in address order.
func BenchmarkApplyHello(b *testing.B) {
	const dests, senders = 64, 15
	perPage := (packet.MaxPayload(packet.TypeHello) - packet.SecOverhead) / packet.HelloEntryLen
	type page struct {
		from packet.Address
		rows []packet.HelloEntry
	}
	var pages []page
	for s := 0; s < senders; s++ {
		from := packet.Address(2 + s)
		adv := []packet.HelloEntry{{Addr: from, Role: packet.RoleDefault}}
		for a := packet.Address(1); a <= dests+1; a++ {
			if a != from {
				adv = append(adv, packet.HelloEntry{Addr: a, Metric: uint8(1 + (int(a)+s)%6), Role: packet.RoleDefault})
			}
		}
		for len(adv) > 0 {
			n := min(perPage, len(adv))
			pages = append(pages, page{from, adv[:n]})
			adv = adv[n:]
		}
	}
	tab := newTestTable(DefaultConfig())
	for _, p := range pages {
		tab.ApplyHello(t0, p.from, packet.RoleDefault, 0, p.rows)
	}
	if tab.Len() != dests {
		b.Fatalf("table holds %d routes, want %d", tab.Len(), dests)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pages[i%len(pages)]
		tab.ApplyHello(t0.Add(time.Duration(i)*time.Second), p.from, packet.RoleDefault, float64(i%7), p.rows)
	}
}

func TestSNRTiebreak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SNRTiebreak = true
	tab := newTestTable(cfg)
	// Route to D at 2 hops via B, heard at SNR 2 dB.
	tab.ApplyHello(t0, 0x000B, packet.RoleDefault, 2,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1}})
	// Equal-metric alternative via C at SNR 8 dB: displaces (the 3 dB
	// margin is met).
	tab.ApplyHello(t0, 0x000C, packet.RoleDefault, 8,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1}})
	e, _ := tab.Lookup(0x000D)
	if e.Via != 0x000C {
		t.Errorf("route via %v, want stronger link via 000C", e.Via)
	}
	// A merely-slightly-better link (within the margin) does not flap.
	tab.ApplyHello(t0, 0x000E, packet.RoleDefault, 9,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1}})
	e, _ = tab.Lookup(0x000D)
	if e.Via != 0x000C {
		t.Errorf("route flapped to %v on a 1 dB advantage", e.Via)
	}
	// Without the option, equal-metric candidates never displace.
	plain := newTestTable(DefaultConfig())
	plain.ApplyHello(t0, 0x000B, packet.RoleDefault, 2,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1}})
	plain.ApplyHello(t0, 0x000C, packet.RoleDefault, 20,
		[]packet.HelloEntry{{Addr: 0x000D, Metric: 1}})
	e, _ = plain.Lookup(0x000D)
	if e.Via != 0x000B {
		t.Errorf("hop-only table displaced equal-metric route to %v", e.Via)
	}
}

// TestWithdrawnNeighbourRejoinsAtOnce pins what every program has always
// run: withdrawals are not counted against a neighbour, so however often
// its link flaps inside one EntryTTL, its next HELLO is applied.
func TestWithdrawnNeighbourRejoinsAtOnce(t *testing.T) {
	tab := newTestTable(Config{EntryTTL: time.Minute, Poisoning: true})
	now := t0
	for flap := 1; flap <= 3; flap++ {
		if !tab.ApplyHello(now, 0x0002, packet.RoleDefault, 10, nil) {
			t.Fatalf("flap %d: HELLO from the withdrawn neighbour not applied", flap)
		}
		if _, ok := tab.NextHop(0x0002); !ok {
			t.Fatalf("flap %d: no route after the HELLO", flap)
		}
		if dead := tab.RemoveNeighbor(now, 0x0002); len(dead) != 1 {
			t.Fatalf("flap %d: RemoveNeighbor withdrew %v, want the one route", flap, dead)
		}
		now = now.Add(tab.cfg.EntryTTL / 10)
	}
	if !tab.ApplyHello(now, 0x0002, packet.RoleDefault, 10, nil) {
		t.Fatal("HELLO after three withdrawals inside one EntryTTL was not applied")
	}
}

// mapTable is the map-backed table this package shipped before the rows
// became a sorted slice, kept as the reference model the differential
// tests below hold Table to.
type mapTable struct {
	self    packet.Address
	cfg     Config
	entries map[packet.Address]*Entry
}

func newMapTable(self packet.Address, cfg Config) *mapTable {
	return &mapTable{self: self, cfg: cfg.withDefaults(), entries: make(map[packet.Address]*Entry)}
}

func (t *mapTable) Len() int {
	n := 0
	for _, e := range t.entries {
		if !e.Poisoned() {
			n++
		}
	}
	return n
}

func (t *mapTable) ApplyHello(now time.Time, from packet.Address, role packet.Role, snr float64, advertised []packet.HelloEntry) bool {
	if from == t.self || from == packet.Broadcast {
		return false
	}
	changed := t.update(now, Entry{Addr: from, Via: from, Metric: 1, Role: role, SNR: snr})
	for _, adv := range advertised {
		if adv.Addr == t.self || adv.Addr == packet.Broadcast || adv.Addr == from {
			continue
		}
		if adv.Metric == MetricInfinity {
			if cur, ok := t.entries[adv.Addr]; ok && cur.Via == from && !cur.Poisoned() {
				t.invalidate(now, cur)
				changed = true
			}
			continue
		}
		if adv.Metric == 0 {
			continue
		}
		metric := int(adv.Metric) + 1
		if metric > int(t.cfg.MaxHops) {
			continue
		}
		if t.update(now, Entry{Addr: adv.Addr, Via: from, Metric: uint8(metric), Role: adv.Role, SNR: snr}) {
			changed = true
		}
	}
	return changed
}

func (t *mapTable) update(now time.Time, cand Entry) bool {
	cand.UpdatedAt = now
	cur, ok := t.entries[cand.Addr]
	switch {
	case ok && cur.Poisoned():
		if cand.Metric != 1 {
			return false
		}
		*cur = cand
		return true
	case !ok:
		e := cand
		t.entries[cand.Addr] = &e
		return true
	case cur.Via == cand.Via:
		structural := cur.Metric != cand.Metric || cur.Role != cand.Role
		*cur = cand
		return structural
	case cand.Metric < cur.Metric:
		*cur = cand
		return true
	case cand.Metric == cur.Metric && t.cfg.SNRTiebreak && cand.SNR >= cur.SNR+snrMarginDB:
		*cur = cand
		return true
	default:
		return false
	}
}

func (t *mapTable) invalidate(now time.Time, e *Entry) {
	if t.cfg.Poisoning {
		e.Metric = MetricInfinity
		e.UpdatedAt = now
		return
	}
	delete(t.entries, e.Addr)
}

func (t *mapTable) ExpireStale(now time.Time) []packet.Address {
	var dead []packet.Address
	for addr, e := range t.entries {
		age := now.Sub(e.UpdatedAt)
		if e.Poisoned() {
			if age > t.cfg.EntryTTL/2 {
				delete(t.entries, addr)
			}
			continue
		}
		if age > t.cfg.EntryTTL {
			t.invalidate(now, e)
			dead = append(dead, addr)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return dead
}

func (t *mapTable) NextHop(dst packet.Address) (packet.Address, bool) {
	e, ok := t.entries[dst]
	if !ok || e.Poisoned() {
		return 0, false
	}
	return e.Via, true
}

func (t *mapTable) Lookup(dst packet.Address) (Entry, bool) {
	e, ok := t.entries[dst]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

func (t *mapTable) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (t *mapTable) RemoveNeighbor(now time.Time, via packet.Address) []packet.Address {
	var dead []packet.Address
	for addr, e := range t.entries {
		if e.Via == via && !e.Poisoned() {
			t.invalidate(now, e)
			dead = append(dead, addr)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	return dead
}

// modelConfigs are the four switch settings the differential tests run:
// poisoning and the SNR tiebreak, each on and off, at a short TTL and a
// low hop cap so expiry, hold-down and the cap all fire.
func modelConfigs() []Config {
	var out []Config
	for _, poison := range []bool{false, true} {
		for _, snr := range []bool{false, true} {
			out = append(out, Config{EntryTTL: time.Minute, MaxHops: 6, Poisoning: poison, SNRTiebreak: snr})
		}
	}
	return out
}

// agree fails t unless tab and ref hold the same rows, count the same
// usable ones, and pick the same next hop for every address in addrs.
func agree(t *testing.T, tab *Table, ref *mapTable, addrs []packet.Address, where string) {
	t.Helper()
	if got, want := tab.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Entries\n got  %v\n want %v", where, got, want)
	}
	if got, want := tab.Len(), ref.Len(); got != want {
		t.Fatalf("%s: Len = %d, want %d", where, got, want)
	}
	for _, a := range addrs {
		gv, gok := tab.NextHop(a)
		wv, wok := ref.NextHop(a)
		if gv != wv || gok != wok {
			t.Fatalf("%s: NextHop(%v) = %v,%v, want %v,%v", where, a, gv, gok, wv, wok)
		}
	}
}

// randomHello draws an advertisement with every shape the decoder lets
// through: rows mostly in address order (as tables render them) but
// sometimes shuffled, duplicated, about the receiver, the broadcast
// address or the sender itself, at metric 0, over the hop cap, or
// poisoned.
func randomHello(rng *rand.Rand, self, from packet.Address, pool []packet.Address) []packet.HelloEntry {
	rows := make([]packet.HelloEntry, rng.Intn(12))
	for i := range rows {
		addr := pool[rng.Intn(len(pool))]
		switch rng.Intn(12) {
		case 0:
			addr = self
		case 1:
			addr = packet.Broadcast
		case 2:
			addr = from
		}
		metric := uint8(1 + rng.Intn(7))
		switch rng.Intn(10) {
		case 0:
			metric = 0
		case 1, 2:
			metric = MetricInfinity
		}
		rows[i] = packet.HelloEntry{Addr: addr, Metric: metric, Role: packet.Role(1 + rng.Intn(3))}
	}
	if rng.Intn(4) != 0 {
		slices.SortStableFunc(rows, func(a, b packet.HelloEntry) int { return cmp.Compare(a.Addr, b.Addr) })
	}
	if len(rows) > 0 && rng.Intn(4) == 0 {
		rows = append(rows, rows[rng.Intn(len(rows))])
	}
	if rng.Intn(2) == 0 {
		// A real beacon leads with the sender's metric-0 self entry.
		rows = append([]packet.HelloEntry{{Addr: from, Role: packet.RoleDefault}}, rows...)
	}
	return rows
}

// fullHello draws the beacon a converged neighbour sends: its metric-0
// self row, then about nine in ten of the receiver and the pool in address
// order, mostly at route metrics but sometimes poisoned, at 0 or over the
// model's hop cap of 6, paged in two at a random row.
func fullHello(rng *rand.Rand, self, from packet.Address, pool []packet.Address) [][]packet.HelloEntry {
	rows := []packet.HelloEntry{{Addr: from, Role: packet.RoleDefault}}
	for _, a := range append([]packet.Address{self}, pool...) {
		if a == from || rng.Intn(10) == 0 {
			continue
		}
		metric := uint8(1 + rng.Intn(5))
		switch rng.Intn(20) {
		case 0:
			metric = MetricInfinity
		case 1:
			metric = 0
		case 2:
			metric = 6
		}
		role := packet.Role(1 + int(a)%3)
		if rng.Intn(8) == 0 {
			role = packet.Role(1 + rng.Intn(3))
		}
		rows = append(rows, packet.HelloEntry{Addr: a, Metric: metric, Role: role})
	}
	cut := 1 + rng.Intn(len(rows))
	if cut == len(rows) {
		return [][]packet.HelloEntry{rows}
	}
	return [][]packet.HelloEntry{rows[:cut], rows[cut:]}
}

// TestTableMatchesMapModel drives the sorted-slice table and the map model
// through the same seeded random operations and demands identical answers
// and identical state after every step. Besides arbitrary adverts, a few
// neighbours re-advertise near-full tables in address order, which most
// rows meet at the merge cursor and refresh in place. Odd seeds run on a
// clock in a fixed zone east of UTC, where a refreshed row must still read
// back the instant applied.
func TestTableMatchesMapModel(t *testing.T) {
	const self = packet.Address(1)
	pool := make([]packet.Address, 0, 20)
	for a := packet.Address(2); len(pool) < cap(pool); a += 3 {
		pool = append(pool, a)
	}
	neighbours := pool[3:8]
	seen := append([]packet.Address{self, packet.Broadcast, 0}, pool...)
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	for ci, cfg := range modelConfigs() {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab, ref := NewTable(self, cfg), newMapTable(self, cfg)
			now := t0
			if seed%2 == 1 {
				now = t0.In(zone)
			}
			for step := 0; step < 2000; step++ {
				now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
				where := fmt.Sprintf("config %d seed %d step %d", ci, seed, step)
				switch op := rng.Intn(12); {
				case op < 6:
					from := pool[rng.Intn(len(pool))]
					switch rng.Intn(20) {
					case 0:
						from = self
					case 1:
						from = packet.Broadcast
					}
					adv := randomHello(rng, self, from, pool)
					snr := float64(rng.Intn(12))
					role := packet.Role(1 + rng.Intn(3))
					if got, want := tab.ApplyHello(now, from, role, snr, adv), ref.ApplyHello(now, from, role, snr, adv); got != want {
						t.Fatalf("%s: ApplyHello(%v, %v) = %v, want %v", where, from, adv, got, want)
					}
				case op < 8:
					from := neighbours[rng.Intn(len(neighbours))]
					snr := float64(rng.Intn(12))
					role := packet.Role(1 + rng.Intn(3))
					for _, page := range fullHello(rng, self, from, pool) {
						if got, want := tab.ApplyHello(now, from, role, snr, page), ref.ApplyHello(now, from, role, snr, page); got != want {
							t.Fatalf("%s: ApplyHello(%v, %v) = %v, want %v", where, from, page, got, want)
						}
					}
					if e, ok := tab.Lookup(from); !ok || !e.UpdatedAt.Equal(now) || e.UpdatedAt.Location() != now.Location() {
						t.Fatalf("%s: sender's row %v,%v, want it confirmed at %v", where, e, ok, now)
					}
				case op < 9:
					if got, want := tab.ExpireStale(now), ref.ExpireStale(now); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: ExpireStale = %v, want %v", where, got, want)
					}
				case op < 10:
					via := pool[rng.Intn(len(pool))]
					if got, want := tab.RemoveNeighbor(now, via), ref.RemoveNeighbor(now, via); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: RemoveNeighbor(%v) = %v, want %v", where, via, got, want)
					}
				default:
					dst := seen[rng.Intn(len(seen))]
					ge, gok := tab.Lookup(dst)
					we, wok := ref.Lookup(dst)
					if ge != we || gok != wok {
						t.Fatalf("%s: Lookup(%v) = %v,%v, want %v,%v", where, dst, ge, gok, we, wok)
					}
				}
				agree(t, tab, ref, seen, where)
			}
		}
	}
}

// FuzzApplyHello feeds arbitrary bytes through the HELLO decoder into the
// table and the map model: whatever decodes must be applied identically,
// from the sender it names and from two others, and age out identically.
func FuzzApplyHello(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x02, 0x00, 0x01, 0x00, 0x03, 0x01, 0x03})
	f.Fuzz(func(t *testing.T, payload []byte) {
		adv, err := packet.UnmarshalHello(payload)
		if err != nil {
			return
		}
		const self = packet.Address(1)
		from := packet.Address(2)
		if len(adv) > 0 {
			from = adv[0].Addr // a beacon leads with its sender's self entry
		}
		addrs := []packet.Address{self, from, 2, 3}
		for _, e := range adv {
			addrs = append(addrs, e.Addr)
		}
		for ci, cfg := range modelConfigs() {
			tab, ref := NewTable(self, cfg), newMapTable(self, cfg)
			now := t0
			for i, sender := range []packet.Address{from, 2, 3, from} {
				now = now.Add(20 * time.Second)
				where := fmt.Sprintf("config %d hello %d from %v", ci, i, sender)
				if got, want := tab.ApplyHello(now, sender, packet.RoleDefault, float64(4*i), adv), ref.ApplyHello(now, sender, packet.RoleDefault, float64(4*i), adv); got != want {
					t.Fatalf("%s: ApplyHello = %v, want %v", where, got, want)
				}
				agree(t, tab, ref, addrs, where)
			}
			for _, later := range []time.Duration{cfg.EntryTTL, cfg.EntryTTL / 2, cfg.EntryTTL} {
				now = now.Add(later)
				if got, want := tab.ExpireStale(now), ref.ExpireStale(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("config %d: ExpireStale = %v, want %v", ci, got, want)
				}
				agree(t, tab, ref, addrs, fmt.Sprintf("config %d after expiry", ci))
			}
		}
	})
}
