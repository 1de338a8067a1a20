// Package routing implements LoRaMesher's distance-vector routing table.
//
// Every node periodically broadcasts its table in HELLO packets (see
// internal/packet). On reception, a node runs the Bellman-Ford relaxation:
// the sender becomes a 1-hop neighbor, and each advertised destination is
// considered at the advertised metric plus one via the sender. Entries are
// refreshed by subsequent HELLOs and expire after a timeout, which is how
// the prototype detects dead routes.
//
// A table is one slice of 24-byte, pointer-free rows sorted by destination
// address plus a count of the usable ones. Every HELLO is applied by each
// station that hears it (about 15 in the benchmark's mesh) and carries the
// sender's whole table, so nothing on that path hashes: ApplyHello expects
// each advertised row, which arrive in address order, just past the last
// one it applied and refreshes it there, other lookups bisect, Len is a
// field read, and the walks that render or age the table (Entries,
// HelloEntries, ExpireStale, RemoveNeighbor) produce address order without
// sorting.
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

// row is an Entry as the table stores it: the confirmation instant as
// UnixNano in place of a time.Time, whose *Location would make the row
// 40 bytes with a pointer for the collector to scan. Entry is rebuilt
// from it when read.
type row struct {
	addr, via packet.Address
	metric    uint8
	role      packet.Role
	at        int64 // UpdatedAt as UnixNano
	snr       float64
}

// poisoned reports whether the row advertises unreachability.
func (r *row) poisoned() bool { return r.metric == MetricInfinity }

// set overwrites a row's route field by field: a composite literal would
// be built on the stack in narrow stores and copied out in wide loads,
// which stall on store forwarding.
func (r *row) set(at int64, via packet.Address, metric uint8, role packet.Role, snr float64) {
	r.via, r.metric, r.role, r.at, r.snr = via, metric, role, at, snr
}

// Table is a single node's distance-vector routing table: its rows in one
// slice sorted by destination address, and how many of them are usable
// (not poisoned). It is not safe for concurrent use; the owning node
// engine serializes access.
type Table struct {
	self   packet.Address
	cfg    Config
	rows   []row
	usable int
	// loc is the location of the last clock reading applied, the one
	// Entry.UpdatedAt is read in.
	loc *time.Location
	// resume is where the last HELLO's walk stopped and senderRow where
	// its sender's row lay: a table paged over two beacons is heard as
	// two HELLOs in a row, and the second starts where the first
	// stopped. Each is checked against the row it names before use.
	resume, senderRow int
}

// NewTable returns an empty table for the node self.
func NewTable(self packet.Address, cfg Config) *Table {
	return &Table{self: self, cfg: cfg.withDefaults(), loc: time.UTC}
}

// Len returns the number of usable (non-poisoned) entries.
func (t *Table) Len() int { return t.usable }

// clock records now's location and returns now as the rows store it.
func (t *Table) clock(now time.Time) int64 {
	t.loc = now.Location()
	return now.UnixNano()
}

// entry rebuilds the Entry a row stores.
func (t *Table) entry(r *row) Entry {
	return Entry{Addr: r.addr, Via: r.via, Metric: r.metric, Role: r.role,
		UpdatedAt: time.Unix(0, r.at).In(t.loc), SNR: r.snr}
}

// find returns the index of dst's row and true, or the index a row for
// dst would be inserted at and false.
func (t *Table) find(dst packet.Address) (int, bool) { return t.findFrom(0, dst) }

// findFrom is find for a dst that sorts after every row below from. It
// looks at from and the next two rows before it bisects the rest.
func (t *Table) findFrom(from int, dst packet.Address) (int, bool) {
	lo, hi := from, len(t.rows)
	for ; lo < hi && lo < from+3; lo++ {
		if a := t.rows[lo].addr; a >= dst {
			return lo, a == dst
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.rows[m].addr < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.rows) && t.rows[lo].addr == dst
}

// ApplyHello folds one received HELLO into the table. from is the sender
// (which becomes a 1-hop neighbor), role its advertised role, snr the
// reception quality, and advertised its routing-table rows. It reports
// whether the table changed.
func (t *Table) ApplyHello(now time.Time, from packet.Address, role packet.Role, snr float64, advertised []packet.HelloEntry) bool {
	if from == t.self || from == packet.Broadcast {
		return false
	}
	at := t.clock(now)
	// Rows below next sort at or before last, the previous advertised
	// row, and so before the row being applied unless the beacon is out
	// of address order. A beacon lists its rows in address order, so
	// each is usually found at next, where refresh applies it in place.
	next, last := 0, packet.Address(0)
	changed, direct := false, true // direct: the sender's own route is still to apply
	for k := 0; k < len(advertised); k++ {
		if n, c := t.refresh(advertised[k:], next, at, from, snr); n > 0 {
			changed = changed || c
			k, next, last = k+n-1, next+n, advertised[k+n-1].Addr
			continue
		}
		adv := advertised[k]
		// A beacon leads with the sender's own row instead of listing it
		// in address order, so an in-order walk finds the sender's route
		// in a gap. The direct route is applied there, and the row tried
		// again past it.
		if direct && next < len(t.rows) && t.rows[next].addr == from && adv.Addr > from {
			_, c := t.update(at, next, from, from, 1, role, snr)
			changed, direct, t.senderRow = changed || c, false, next
			next, last = next+1, from // every row below next now sorts at or before from
			k--
			continue
		}
		if adv.Addr == t.self || adv.Addr == packet.Broadcast {
			continue
		}
		// Direct reception is authoritative for the sender itself: an
		// advertised row about the sender (stale self-route echoed back
		// through the mesh) must not degrade the 1-hop entry.
		if adv.Addr == from {
			continue
		}
		if adv.Addr <= last {
			next = 0 // out of address order
		}
		if h := t.resume; next < h && h < len(t.rows) && t.rows[h].addr == adv.Addr {
			// The previous beacon's walk stopped at this row: the walk
			// resumes there, every row below it sorting before it.
			next, last = h, t.rows[h-1].addr
			k--
			continue
		}
		last = adv.Addr
		if adv.Metric == MetricInfinity {
			// Poisoned advertisement: if our route to that
			// destination goes through the sender, it is dead.
			i, ok := t.findFrom(next, adv.Addr)
			next = i
			if ok && t.rows[i].via == from && !t.rows[i].poisoned() {
				if !t.withdraw(at, &t.rows[i]) {
					t.rows = slices.Delete(t.rows, i, i+1)
				}
				changed = true
			}
			continue
		}
		// Metric 0 means "the destination is the advertiser" and is only
		// legitimate for adv.Addr == from, handled above; anything else
		// is corruption and must not masquerade as a 1-hop route.
		if adv.Metric == 0 || adv.Metric >= t.cfg.MaxHops {
			continue
		}
		i, c := t.update(at, next, adv.Addr, from, adv.Metric+1, adv.Role, snr)
		next = i + 1 // row i is adv.Addr, which sorts before the next row
		changed = changed || c
	}
	if direct {
		// The walk did not reach the sender's row. When the sender sorts
		// after every row applied, the row lies at or past next.
		start := 0
		if from > last {
			start = next
		} else if i := t.senderRow; i < len(t.rows) && t.rows[i].addr == from {
			start = i
		}
		i, c := t.update(at, start, from, from, 1, role, snr)
		changed, t.senderRow = changed || c, i
	}
	t.resume = next
	return changed
}

// refresh is ApplyHello's fast path. It walks advertised and the rows
// from next in step for as long as each row is the destination advertised
// beside it, and returns how many rows it walked and whether any route
// changed. Most candidates lose, and one through another neighbour that
// is not shorter (nor, with SNRTiebreak, as short) changes nothing
// whatever else it is, so it is passed over first. Otherwise the row must
// be usable and the candidate a route (a metric of 1 to MaxHops-1: 0,
// over the cap and MetricInfinity all wrap past hopCap-1) from a sender
// that is not the destination, and only the Bellman-Ford rule is left,
// applied in place. refresh calls nothing, so the walk keeps its state
// in registers.
func (t *Table) refresh(advertised []packet.HelloEntry, next int, at int64, from packet.Address, snr float64) (n int, changed bool) {
	rows := t.rows[next:]
	m := min(len(rows), len(advertised))
	rows, advertised = rows[:m], advertised[:m]
	hopCap, tiebreak := t.cfg.MaxHops, t.cfg.SNRTiebreak
	// A candidate at adv.Metric+1 loses to a row at a metric no more than
	// adv.Metric+tieLoses: one compare, whose outcome rarely changes.
	tieLoses := 1
	if tiebreak {
		tieLoses = 0
	}
	for ; n < len(rows); n++ {
		adv, r := &advertised[n], &rows[n]
		if r.addr != adv.Addr {
			break
		}
		if r.via != from && int(adv.Metric)+tieLoses >= int(r.metric) {
			continue
		}
		if adv.Addr == from || adv.Metric-1 >= hopCap-1 || r.poisoned() {
			break
		}
		c := r.relax(tiebreak, at, from, adv.Metric+1, adv.Role, snr)
		changed = changed || c
	}
	return n, changed
}

// update applies the Bellman-Ford acceptance rule for one candidate route
// to dst via a neighbour at a metric, which is never poisoned: it is
// capped at MaxHops. Every row below from sorts before dst. It returns
// the index of dst's row and whether the table changed. The candidate
// arrives as scalars, not as a row, for the reason set gives.
func (t *Table) update(at int64, from int, dst, via packet.Address, metric uint8, role packet.Role, snr float64) (int, bool) {
	i, ok := t.findFrom(from, dst)
	if !ok {
		t.rows = slices.Insert(t.rows, i, row{addr: dst})
		t.usable++
	} else if cur := &t.rows[i]; !cur.poisoned() {
		return i, cur.relax(t.cfg.SNRTiebreak, at, via, metric, role, snr)
	} else if metric != 1 {
		// Hold-down: while a route is poisoned, neighbors may still be
		// advertising their stale copies of it; accepting them would
		// resurrect the dead route and defeat the poison. Only direct
		// evidence (a metric-1 candidate: the destination itself was
		// heard) lifts the hold.
		return i, false
	} else {
		t.usable++
	}
	t.rows[i].set(at, via, metric, role, snr)
	return i, true
}

// relax applies the Bellman-Ford rule to a usable row for a candidate
// route via a neighbour at a metric, and reports whether the row's route
// changed. It is small enough to inline into refresh's loop.
func (cur *row) relax(tiebreak bool, at int64, via packet.Address, metric uint8, role packet.Role, snr float64) bool {
	sameHop := cur.via == via
	switch {
	case sameHop:
		// Update from the route's own next hop: always accept — the
		// path through that neighbor now has this metric, better or
		// worse — and refresh the timestamp.
	case metric < cur.metric:
		// Strictly better path through a different neighbor.
	case tiebreak && metric == cur.metric && snr >= cur.snr+snrMarginDB:
		// Equal hop count but a clearly stronger first link. The
		// setting is tested first: it never changes, so the branch on
		// it is predicted where the one on the metrics is not.
	default:
		return false
	}
	changed := !sameHop || cur.metric != metric || cur.role != role
	cur.set(at, via, metric, role, snr)
	return changed
}

// withdraw makes a usable row unreachable: with poisoning on it is
// poisoned in place and kept; otherwise it reports false and the caller
// removes the row.
func (t *Table) withdraw(at int64, r *row) (keep bool) {
	t.usable--
	if !t.cfg.Poisoning {
		return false
	}
	r.metric = MetricInfinity
	r.at = at
	return true
}

// poisonHold is how long a poisoned entry is retained.
func (t *Table) poisonHold() time.Duration { return t.cfg.EntryTTL / 2 }

// ExpireStale drops (or poisons) entries whose TTL has lapsed and removes
// poisoned entries past their hold time. It returns the addresses whose
// routes were invalidated this call, in address order.
func (t *Table) ExpireStale(now time.Time) []packet.Address {
	at := t.clock(now)
	ttl, hold := int64(t.cfg.EntryTTL), int64(t.poisonHold())
	var dead []packet.Address
	kept := t.rows[:0]
	for _, r := range t.rows {
		age := at - r.at
		if r.poisoned() {
			if age > hold {
				continue
			}
		} else if age > ttl {
			dead = append(dead, r.addr)
			if !t.withdraw(at, &r) {
				continue
			}
		}
		kept = append(kept, r)
	}
	t.rows = kept
	return dead
}

// NextHop returns the neighbor to forward a packet for dst to.
func (t *Table) NextHop(dst packet.Address) (packet.Address, bool) {
	i, ok := t.find(dst)
	if !ok || t.rows[i].poisoned() {
		return 0, false
	}
	return t.rows[i].via, true
}

// HopsTo returns the hop count (route metric) to dst, false when no
// usable route exists. Strategies that derive schedules from topology —
// the slotted mode assigns TDMA slots by route depth — read this instead
// of inspecting entries directly.
func (t *Table) HopsTo(dst packet.Address) (uint8, bool) {
	i, ok := t.find(dst)
	if !ok || t.rows[i].poisoned() {
		return 0, false
	}
	return t.rows[i].metric, true
}

// Lookup returns a copy of the entry for dst.
func (t *Table) Lookup(dst packet.Address) (Entry, bool) {
	i, ok := t.find(dst)
	if !ok {
		return Entry{}, false
	}
	return t.entry(&t.rows[i]), true
}

// Entries returns a copy of all rows (including poisoned ones), sorted by
// address.
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.rows))
	for i := range t.rows {
		out[i] = t.entry(&t.rows[i])
	}
	return out
}

// HelloEntries renders the table as HELLO advertisement rows in address
// order: every usable route at its metric, plus — when poisoning is on —
// poisoned routes at MetricInfinity.
func (t *Table) HelloEntries() []packet.HelloEntry {
	out := make([]packet.HelloEntry, len(t.rows))
	for i, r := range t.rows {
		out[i] = packet.HelloEntry{Addr: r.addr, Metric: r.metric, Role: r.role}
	}
	return out
}

// ByRole returns the usable entries whose destination advertises the
// given role, nearest (lowest metric) first — service discovery: "find
// me a sink/gateway" without provisioning addresses.
func (t *Table) ByRole(role packet.Role) []Entry {
	var out []Entry
	for i := range t.rows {
		if r := &t.rows[i]; !r.poisoned() && r.role == role {
			out = append(out, t.entry(r))
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
	at := t.clock(now)
	var dead []packet.Address
	kept := t.rows[:0]
	for _, r := range t.rows {
		if r.via == via && !r.poisoned() {
			dead = append(dead, r.addr)
			if !t.withdraw(at, &r) {
				continue
			}
		}
		kept = append(kept, r)
	}
	t.rows = kept
	return dead
}
