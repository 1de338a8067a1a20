// Package forward defines the pluggable forwarding-strategy API: the
// engine surface every mesh protocol in this repository presents to its
// host, plus the smaller contracts a strategy is assembled from — the
// transmission admission for scheduled access (TxGate), the routed-
// packet duplicate suppressor (Dedup), the bounded seen-set the
// table-free engines share (SeenSet), and the canonical drop-reason
// vocabulary shared by every strategy's drop accounting. Every engine
// transmits through one path, core.Transmitter, which consults the
// TxGate.
//
// Four strategies implement the API today:
//
//   - proactive — LoRaMesher's distance-vector engine (internal/core on
//     internal/routing), the paper's protocol;
//   - reactive  — the AODV-style on-demand engine (internal/reactive);
//   - icn       — named-data pub-sub with in-mesh caching and interest
//     aggregation (internal/icn); and
//   - slotted   — the proactive engine under a TDMA-like transmission
//     schedule with per-flow latency bounds (internal/slotted).
//
// The controlled-flooding baseline (internal/baseline) implements the
// same surface, so comparison experiments dispatch every engine —
// baseline or strategy — through one interface instead of hard-wired
// per-protocol calls.
//
// A strategy is selected by its Kind name and nothing else: both
// executors (netsim.Config.Protocol, citysim.Config.Strategy) take the
// name, and each strategy's own parameters are constants in its package.
package forward

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
)

// Kind names a forwarding strategy. The string forms are the values the
// meshsim -strategy flag accepts.
type Kind string

// Known strategies.
const (
	// KindProactive is LoRaMesher's distance-vector engine.
	KindProactive Kind = "proactive"
	// KindReactive is the AODV-style on-demand engine.
	KindReactive Kind = "reactive"
	// KindICN is the named-data pub-sub strategy with in-mesh caching.
	KindICN Kind = "icn"
	// KindSlotted is the proactive engine under a TDMA-like schedule.
	KindSlotted Kind = "slotted"
	// KindFlooding is the controlled-flooding baseline.
	KindFlooding Kind = "flooding"
)

// Kinds returns every selectable strategy kind in display order.
func Kinds() []Kind {
	return []Kind{KindProactive, KindReactive, KindICN, KindSlotted, KindFlooding}
}

// ParseKind maps a -strategy flag value to its Kind, failing cleanly on
// anything unknown.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("forward: unknown strategy %q (want proactive, reactive, icn, slotted, or flooding)", s)
}

// RxInfo carries link-quality measurements for a received frame.
type RxInfo struct {
	RSSIDBm float64
	SNRDB   float64
}

// Strategy is the host-driven engine surface every forwarding strategy
// implements. Engines perform no I/O and start no goroutines: a host —
// the deterministic simulator or a live runtime — serializes all calls
// and carries out transmissions through the engine's Env.
type Strategy interface {
	// Start arms the strategy's timers (beacons, schedules); reactive
	// strategies may be silent until traffic appears.
	Start() error
	// Stop cancels all pending work; a stopped engine ignores frames.
	Stop()
	// Send admits one application payload for dst. Strategies that route
	// by name rather than address (ICN) interpret the payload as the
	// content name and dst as advisory. Send keeps no reference to
	// payload: the caller may reuse it once Send returns.
	Send(dst packet.Address, payload []byte) error
	// HandleFrame processes one frame received from the radio.
	HandleFrame(frame []byte, info RxInfo)
	// HandleTxDone is the host's signal that the engine's transmission
	// ended.
	HandleTxDone()
	// Metrics exposes the engine's drop accounting and counters.
	Metrics() *metrics.Registry
}

// TxGate is the transmission-admission hook scheduled-access strategies
// install in the engine's transmit path. Clearance is consulted after
// the duty-cycle check and before listen-before-talk: a zero return
// clears the frame to transmit now; a positive return defers the queue
// pump by that long (the engine re-consults at the new time).
type TxGate interface {
	Clearance(now time.Time, t packet.Type, airtime time.Duration) time.Duration
}

// Canonical drop reasons. Every strategy accounts drops under a
// "drop.<reason>" counter using this vocabulary, and span/trace sinks
// carry the same strings, so drop tables compare across strategies.
const (
	DropNoRoute   = "noroute"
	DropDuplicate = "duplicate"
	DropQueueFull = "queue_full"
	DropDutyCycle = "dutycycle"
	DropMarshal   = "marshal"
	DropTxError   = "txerror"
	DropTTL       = "ttl"
	DropNoPIT     = "nopit"
)

// Dedup is the routed-packet duplicate suppressor strategies share: it
// remembers packet fingerprints for a horizon and reports repeats,
// breaking transient forwarding loops (the wire format has no TTL
// field). A non-positive horizon disables it. The zero value is ready
// to use.
//
// A duplicate hit does NOT refresh the remembered instant: the horizon
// measures from first sight. Sightings are kept in first-sight order and
// dropped from the oldest as they pass the horizon, so the table holds
// only the fingerprints still within it. For non-decreasing instants (the
// simulator's clock, the monotonic wall clock) every answer is the one a
// map of each fingerprint's last recorded instant would give.
type Dedup struct {
	// Horizon is how long a fingerprint is remembered.
	Horizon time.Duration
	seen    []sighting // oldest first
}

// sighting is a fingerprint and the instant it was recorded.
type sighting struct {
	fp uint64
	at time.Time
}

// Duplicate records fp at now and reports whether it was already seen
// within the horizon.
func (d *Dedup) Duplicate(now time.Time, fp uint64) bool {
	if d.Horizon <= 0 {
		return false
	}
	stale := 0
	for stale < len(d.seen) && now.Sub(d.seen[stale].at) >= d.Horizon {
		stale++
	}
	d.seen = slices.Delete(d.seen, 0, stale)
	for _, s := range d.seen {
		if s.fp == fp && now.Sub(s.at) < d.Horizon {
			return true
		}
	}
	d.seen = append(d.seen, sighting{fp, now})
	return false
}

// SeenSet is the bounded duplicate-suppression set the table-free
// engines (flooding, reactive, ICN) share: it remembers up to Cap keys
// and, past that, forgets the key first remembered longest ago — FIFO by
// first sight, whatever happened to the key since. It does not replace
// Dedup: there is no horizon, only the capacity bound. The zero value is
// ready to use once Cap is set.
//
// Eviction order is load-bearing for replay determinism (E7/X6/X7 are
// byte-identical per seed), so it is fixed here once rather than per
// engine.
type SeenSet[K comparable] struct {
	// Cap is how many keys are remembered.
	Cap   int
	at    map[K]time.Time
	order []K
}

// Remember records k and reports whether it was already remembered (a
// repeat keeps its place in the eviction order).
func (s *SeenSet[K]) Remember(k K) bool {
	if _, ok := s.at[k]; ok {
		return true
	}
	s.Mark(k, time.Time{})
	return false
}

// At returns the time k was last marked with; ok is false when k is not
// remembered.
func (s *SeenSet[K]) At(k K) (at time.Time, ok bool) {
	at, ok = s.at[k]
	return at, ok
}

// Mark records k as last heard at the given time. A key already
// remembered keeps its place in the eviction order.
func (s *SeenSet[K]) Mark(k K, at time.Time) {
	if s.at == nil {
		s.at = make(map[K]time.Time)
	}
	_, known := s.at[k]
	s.at[k] = at
	if known {
		return
	}
	s.order = append(s.order, k)
	if len(s.order) > s.Cap {
		delete(s.at, s.order[0])
		s.order = s.order[1:]
	}
}
