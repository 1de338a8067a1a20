// Package routing implements LoRaMesher's distance-vector routing table.
//
// Every node periodically broadcasts its table in HELLO packets (see
// internal/packet). On reception, a node runs the Bellman-Ford relaxation:
// the sender becomes a 1-hop neighbor, and each advertised destination is
// considered at the advertised metric plus one via the sender. Entries are
// refreshed by subsequent HELLOs and expire after a timeout, which is how
// the prototype detects dead routes.
//
// A table is one slice of rows sorted by destination address plus a count
// of the usable ones. Every HELLO is applied by each station that hears it
// (about 15 in the benchmark's mesh) and carries the sender's whole table,
// so nothing on that path hashes: ApplyHello looks for each advertised
// row, which arrive in address order, just past the last one it applied,
// other lookups bisect, Len is a field read, and the walks that render or
// age the table (Entries, HelloEntries, ExpireStale, RemoveNeighbor)
// produce address order without sorting.
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
	"cmp"
	"fmt"
	"slices"
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

// Table is a single node's distance-vector routing table: its rows in one
// slice sorted by destination address, and how many of them are usable
// (not poisoned). It is not safe for concurrent use; the owning node
// engine serializes access.
type Table struct {
	self   packet.Address
	cfg    Config
	rows   []Entry
	usable int
}

// NewTable returns an empty table for the node self.
func NewTable(self packet.Address, cfg Config) *Table {
	return &Table{self: self, cfg: cfg.withDefaults()}
}

// Len returns the number of usable (non-poisoned) entries.
func (t *Table) Len() int { return t.usable }

// find returns the index of dst's row and true, or the index a row for
// dst would be inserted at and false.
func (t *Table) find(dst packet.Address) (int, bool) { return t.findFrom(0, dst) }

// findFrom is find for a dst that sorts after every row below from. It
// looks at from and the next two rows before it bisects the rest.
func (t *Table) findFrom(from int, dst packet.Address) (int, bool) {
	lo, hi := from, len(t.rows)
	for ; lo < hi && lo < from+3; lo++ {
		if a := t.rows[lo].Addr; a >= dst {
			return lo, a == dst
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.rows[m].Addr < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.rows) && t.rows[lo].Addr == dst
}

// ApplyHello folds one received HELLO into the table. from is the sender
// (which becomes a 1-hop neighbor), role its advertised role, snr the
// reception quality, and advertised its routing-table rows. It reports
// whether the table changed.
func (t *Table) ApplyHello(now time.Time, from packet.Address, role packet.Role, snr float64, advertised []packet.HelloEntry) bool {
	if from == t.self || from == packet.Broadcast {
		return false
	}
	_, changed := t.update(now, 0, from, from, 1, role, snr)
	// Rows below next sort before the row being applied. A beacon lists
	// its rows in address order, so each is usually found at next or
	// just past it.
	next := 0
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
		if next > 0 && t.rows[next-1].Addr >= adv.Addr {
			next = 0 // out of address order
		}
		if adv.Metric == MetricInfinity {
			// Poisoned advertisement: if our route to that
			// destination goes through the sender, it is dead.
			i, ok := t.findFrom(next, adv.Addr)
			next = i
			if ok && t.rows[i].Via == from && !t.rows[i].Poisoned() {
				if !t.withdraw(now, &t.rows[i]) {
					t.rows = slices.Delete(t.rows, i, i+1)
				}
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
		i, c := t.update(now, next, adv.Addr, from, uint8(metric), adv.Role, snr)
		next = i + 1 // row i is adv.Addr, which sorts before the next row
		changed = changed || c
	}
	return changed
}

// update applies the Bellman-Ford acceptance rule for one candidate route
// to dst via a neighbour at a metric, which is never poisoned: it is
// capped at MaxHops. Every row below from sorts before dst. It returns
// the index of dst's row and whether the table changed. The candidate
// arrives as scalars, not as an Entry, for the reason set gives.
func (t *Table) update(now time.Time, from int, dst, via packet.Address, metric uint8, role packet.Role, snr float64) (int, bool) {
	i, ok := t.findFrom(from, dst)
	if !ok {
		t.rows = slices.Insert(t.rows, i, Entry{Addr: dst})
		t.usable++
	}
	cur := &t.rows[i]
	switch {
	case !ok:
	case cur.Metric == MetricInfinity: // poisoned; not cur.Poisoned(), which copies the row
		// Hold-down: while a route is poisoned, neighbors may still be
		// advertising their stale copies of it; accepting them would
		// resurrect the dead route and defeat the poison. Only direct
		// evidence (a metric-1 candidate: the destination itself was
		// heard) lifts the hold.
		if metric != 1 {
			return i, false
		}
		t.usable++
	case cur.Via == via:
		// Update from the route's own next hop: always accept — the
		// path through that neighbor now has this metric, better or
		// worse — and refresh the timestamp.
		structural := cur.Metric != metric || cur.Role != role
		cur.set(now, via, metric, role, snr)
		return i, structural
	case metric < cur.Metric:
		// Strictly better path through a different neighbor.
	case metric == cur.Metric && t.cfg.SNRTiebreak && snr >= cur.SNR+snrMarginDB:
		// Equal hop count but a clearly stronger first link.
	default:
		return i, false
	}
	cur.set(now, via, metric, role, snr)
	return i, true
}

// set overwrites a row's route field by field: a composite literal would
// be built on the stack in narrow stores and copied out in wide loads,
// which stall on store forwarding.
func (e *Entry) set(now time.Time, via packet.Address, metric uint8, role packet.Role, snr float64) {
	e.Via, e.Metric, e.Role, e.UpdatedAt, e.SNR = via, metric, role, now, snr
}

// withdraw makes a usable row unreachable: with poisoning on it is
// poisoned in place and kept; otherwise it reports false and the caller
// removes the row.
func (t *Table) withdraw(now time.Time, e *Entry) (keep bool) {
	t.usable--
	if !t.cfg.Poisoning {
		return false
	}
	e.Metric = MetricInfinity
	e.UpdatedAt = now
	return true
}

// poisonHold is how long a poisoned entry is retained.
func (t *Table) poisonHold() time.Duration { return t.cfg.EntryTTL / 2 }

// ExpireStale drops (or poisons) entries whose TTL has lapsed and removes
// poisoned entries past their hold time. It returns the addresses whose
// routes were invalidated this call, in address order.
func (t *Table) ExpireStale(now time.Time) []packet.Address {
	var dead []packet.Address
	kept := t.rows[:0]
	for _, e := range t.rows {
		age := now.Sub(e.UpdatedAt)
		if e.Poisoned() {
			if age > t.poisonHold() {
				continue
			}
		} else if age > t.cfg.EntryTTL {
			dead = append(dead, e.Addr)
			if !t.withdraw(now, &e) {
				continue
			}
		}
		kept = append(kept, e)
	}
	clear(t.rows[len(kept):])
	t.rows = kept
	return dead
}

// NextHop returns the neighbor to forward a packet for dst to.
func (t *Table) NextHop(dst packet.Address) (packet.Address, bool) {
	i, ok := t.find(dst)
	if !ok || t.rows[i].Poisoned() {
		return 0, false
	}
	return t.rows[i].Via, true
}

// HopsTo returns the hop count (route metric) to dst, false when no
// usable route exists. Strategies that derive schedules from topology —
// the slotted mode assigns TDMA slots by route depth — read this instead
// of inspecting entries directly.
func (t *Table) HopsTo(dst packet.Address) (uint8, bool) {
	i, ok := t.find(dst)
	if !ok || t.rows[i].Poisoned() {
		return 0, false
	}
	return t.rows[i].Metric, true
}

// Lookup returns a copy of the entry for dst.
func (t *Table) Lookup(dst packet.Address) (Entry, bool) {
	i, ok := t.find(dst)
	if !ok {
		return Entry{}, false
	}
	return t.rows[i], true
}

// Entries returns a copy of all rows (including poisoned ones), sorted by
// address.
func (t *Table) Entries() []Entry {
	return append(make([]Entry, 0, len(t.rows)), t.rows...)
}

// HelloEntries renders the table as HELLO advertisement rows in address
// order: every usable route at its metric, plus — when poisoning is on —
// poisoned routes at MetricInfinity.
func (t *Table) HelloEntries() []packet.HelloEntry {
	out := make([]packet.HelloEntry, 0, len(t.rows))
	for _, e := range t.rows {
		out = append(out, packet.HelloEntry{Addr: e.Addr, Metric: e.Metric, Role: e.Role})
	}
	return out
}

// ByRole returns the usable entries whose destination advertises the
// given role, nearest (lowest metric) first — service discovery: "find
// me a sink/gateway" without provisioning addresses.
func (t *Table) ByRole(role packet.Role) []Entry {
	var out []Entry
	for _, e := range t.rows {
		if !e.Poisoned() && e.Role == role {
			out = append(out, e)
		}
	}
	// Stable over address order: equal metrics stay nearest address first.
	slices.SortStableFunc(out, func(a, b Entry) int { return cmp.Compare(a.Metric, b.Metric) })
	return out
}

// RemoveNeighbor drops every route through the given neighbor, as when the
// link layer reports repeated delivery failure. It returns the invalidated
// destinations in address order.
func (t *Table) RemoveNeighbor(now time.Time, via packet.Address) []packet.Address {
	var dead []packet.Address
	kept := t.rows[:0]
	for _, e := range t.rows {
		if e.Via == via && !e.Poisoned() {
			dead = append(dead, e.Addr)
			if !t.withdraw(now, &e) {
				continue
			}
		}
		kept = append(kept, e)
	}
	clear(t.rows[len(kept):])
	t.rows = kept
	return dead
}
