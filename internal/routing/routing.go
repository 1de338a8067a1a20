// Package routing implements LoRaMesher's distance-vector routing table.
//
// Every node periodically broadcasts its table in HELLO packets (see
// internal/packet). On reception, a node runs the Bellman-Ford relaxation:
// the sender becomes a 1-hop neighbor, and each advertised destination is
// considered at the advertised metric plus one via the sender. Entries are
// refreshed by subsequent HELLOs and expire after a timeout, which is how
// the prototype detects dead routes.
//
// Two defensive mechanisms beyond the prototype's expiry-only behaviour are
// available behind configuration flags, evaluated as ablations:
//
//   - route poisoning with hold-down: expired routes are advertised at the
//     infinity metric for a hold period so that neighbors discard them
//     immediately instead of waiting out their own timeouts, and while
//     poisoned only direct (metric-1) evidence resurrects the route —
//     otherwise neighbors' stale advertisements would revive it; and
//   - a hop-count cap that bounds count-to-infinity.
package routing

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/packet"
)

// MetricInfinity is the on-wire metric meaning "unreachable"; it is what a
// poisoned route advertises.
const MetricInfinity uint8 = 255

// snrMarginDB is the hysteresis for Config.SNRTiebreak.
const snrMarginDB = 3

// Config tunes the routing table.
type Config struct {
	// EntryTTL is how long an entry survives without a refreshing HELLO.
	// The prototype uses ten minutes (five 120 s HELLO periods).
	EntryTTL time.Duration
	// MaxHops caps usable route length; candidates beyond it are
	// discarded, bounding count-to-infinity. Zero means 32.
	MaxHops uint8
	// Poisoning keeps expired routes for half of EntryTTL, advertised
	// at MetricInfinity, so neighbors drop them immediately.
	Poisoning bool
	// SNRTiebreak prefers, among equal-hop-count candidates, the route
	// whose next-hop link has the higher SNR — the link-quality
	// refinement later versions of the prototype adopt. A candidate
	// displaces an equal-metric route only when its SNR advantage
	// exceeds snrMarginDB, hysteresis against route flapping.
	SNRTiebreak bool
}

// DefaultConfig returns the prototype's values: 10-minute TTL, 32-hop cap,
// no poisoning.
func DefaultConfig() Config {
	return Config{EntryTTL: 10 * time.Minute, MaxHops: 32}
}

func (c Config) withDefaults() Config {
	if c.EntryTTL <= 0 {
		c.EntryTTL = 10 * time.Minute
	}
	if c.MaxHops == 0 || c.MaxHops >= MetricInfinity {
		c.MaxHops = 32
	}
	return c
}

// Entry is one routing-table row.
type Entry struct {
	// Addr is the destination.
	Addr packet.Address
	// Via is the 1-hop neighbor packets to Addr are handed to.
	Via packet.Address
	// Metric is the hop count; 1 means Addr is a direct neighbor.
	// MetricInfinity marks a poisoned (unreachable) route.
	Metric uint8
	// Role is the destination's advertised role.
	Role packet.Role
	// UpdatedAt is when the entry was last confirmed.
	UpdatedAt time.Time
	// SNR is the signal-to-noise ratio of the most recent HELLO from
	// Via, a link-quality hint for diagnostics.
	SNR float64
}

// Poisoned reports whether the entry advertises unreachability.
func (e Entry) Poisoned() bool { return e.Metric == MetricInfinity }

func (e Entry) String() string {
	return fmt.Sprintf("%v via %v metric %d role %v", e.Addr, e.Via, e.Metric, e.Role)
}

// Table is a single node's distance-vector routing table. It is not safe
// for concurrent use; the owning node engine serializes access.
type Table struct {
	self    packet.Address
	cfg     Config
	entries map[packet.Address]*Entry
}

// NewTable returns an empty table for the node self.
func NewTable(self packet.Address, cfg Config) *Table {
	return &Table{
		self:    self,
		cfg:     cfg.withDefaults(),
		entries: make(map[packet.Address]*Entry),
	}
}

// Len returns the number of usable (non-poisoned) entries.
func (t *Table) Len() int {
	n := 0
	for _, e := range t.entries {
		if !e.Poisoned() {
			n++
		}
	}
	return n
}

// ApplyHello folds one received HELLO into the table. from is the sender
// (which becomes a 1-hop neighbor), role its advertised role, snr the
// reception quality, and advertised its routing-table rows. It reports
// whether the table changed.
func (t *Table) ApplyHello(now time.Time, from packet.Address, role packet.Role, snr float64, advertised []packet.HelloEntry) bool {
	if from == t.self || from == packet.Broadcast {
		return false
	}
	changed := t.update(now, Entry{Addr: from, Via: from, Metric: 1, Role: role, SNR: snr})
	for _, adv := range advertised {
		if adv.Addr == t.self || adv.Addr == packet.Broadcast {
			continue
		}
		// Direct reception is authoritative for the sender itself: an
		// advertised row about the sender (stale self-route echoed back
		// through the mesh) must not degrade the 1-hop entry above.
		if adv.Addr == from {
			continue
		}
		if adv.Metric == MetricInfinity {
			// Poisoned advertisement: if our route to that
			// destination goes through the sender, it is dead.
			if cur, ok := t.entries[adv.Addr]; ok && cur.Via == from && !cur.Poisoned() {
				t.invalidate(now, cur)
				changed = true
			}
			continue
		}
		// Metric 0 means "the destination is the advertiser" and is only
		// legitimate for adv.Addr == from, handled above; anything else
		// is corruption and must not masquerade as a 1-hop route.
		if adv.Metric == 0 {
			continue
		}
		metric := int(adv.Metric) + 1
		if metric > int(t.cfg.MaxHops) {
			continue
		}
		if t.update(now, Entry{
			Addr:   adv.Addr,
			Via:    from,
			Metric: uint8(metric),
			Role:   packet.Role(adv.Role),
			SNR:    snr,
		}) {
			changed = true
		}
	}
	return changed
}

// update applies the Bellman-Ford acceptance rule for one candidate route.
func (t *Table) update(now time.Time, cand Entry) bool {
	cand.UpdatedAt = now
	cur, ok := t.entries[cand.Addr]
	switch {
	case ok && cur.Poisoned():
		// Hold-down: while a route is poisoned, neighbors may still be
		// advertising their stale copies of it; accepting them would
		// resurrect the dead route and defeat the poison. Only direct
		// evidence (a metric-1 candidate: the destination itself was
		// heard) lifts the hold.
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
		// Update from the route's own next hop: always accept — the
		// path through that neighbor now has this metric, better or
		// worse — and refresh the timestamp.
		structural := cur.Metric != cand.Metric || cur.Role != cand.Role
		*cur = cand
		return structural
	case cand.Metric < cur.Metric:
		// Strictly better path through a different neighbor.
		*cur = cand
		return true
	case cand.Metric == cur.Metric && t.cfg.SNRTiebreak &&
		cand.SNR >= cur.SNR+snrMarginDB:
		// Equal hop count but a clearly stronger first link.
		*cur = cand
		return true
	default:
		return false
	}
}

// invalidate marks an entry unreachable (poisoning on) or removes it.
func (t *Table) invalidate(now time.Time, e *Entry) {
	if t.cfg.Poisoning {
		e.Metric = MetricInfinity
		e.UpdatedAt = now
		return
	}
	delete(t.entries, e.Addr)
}

// poisonHold is how long a poisoned entry is retained.
func (t *Table) poisonHold() time.Duration { return t.cfg.EntryTTL / 2 }

// ExpireStale drops (or poisons) entries whose TTL has lapsed and removes
// poisoned entries past their hold time. It returns the addresses whose
// routes were invalidated this call.
func (t *Table) ExpireStale(now time.Time) []packet.Address {
	var dead []packet.Address
	for addr, e := range t.entries {
		age := now.Sub(e.UpdatedAt)
		if e.Poisoned() {
			if age > t.poisonHold() {
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

// NextHop returns the neighbor to forward a packet for dst to.
func (t *Table) NextHop(dst packet.Address) (packet.Address, bool) {
	e, ok := t.entries[dst]
	if !ok || e.Poisoned() {
		return 0, false
	}
	return e.Via, true
}

// HopsTo returns the hop count (route metric) to dst, false when no
// usable route exists. Strategies that derive schedules from topology —
// the slotted mode assigns TDMA slots by route depth — read this instead
// of inspecting entries directly.
func (t *Table) HopsTo(dst packet.Address) (uint8, bool) {
	e, ok := t.entries[dst]
	if !ok || e.Poisoned() {
		return 0, false
	}
	return e.Metric, true
}

// Lookup returns a copy of the entry for dst.
func (t *Table) Lookup(dst packet.Address) (Entry, bool) {
	e, ok := t.entries[dst]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Entries returns a copy of all rows (including poisoned ones), sorted by
// address for stable output.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// HelloEntries renders the table as HELLO advertisement rows: every usable
// route at its metric, plus — when poisoning is on — poisoned routes at
// MetricInfinity.
func (t *Table) HelloEntries() []packet.HelloEntry {
	out := make([]packet.HelloEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, packet.HelloEntry{Addr: e.Addr, Metric: e.Metric, Role: e.Role})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ByRole returns the usable entries whose destination advertises the
// given role, nearest (lowest metric) first — service discovery: "find
// me a sink/gateway" without provisioning addresses.
func (t *Table) ByRole(role packet.Role) []Entry {
	var out []Entry
	for _, e := range t.entries {
		if !e.Poisoned() && e.Role == role {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// RemoveNeighbor drops every route through the given neighbor, as when the
// link layer reports repeated delivery failure. It returns the invalidated
// destinations.
func (t *Table) RemoveNeighbor(now time.Time, via packet.Address) []packet.Address {
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
