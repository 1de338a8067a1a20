// Package forward defines the pluggable forwarding-strategy API: the
// engine surface every mesh protocol in this repository presents to its
// host, plus the smaller contracts a strategy is assembled from — the
// transmission admission for scheduled access (TxGate), the routed-
// packet duplicate suppressor (Dedup), the bounded seen-set and transmit
// queue the table-free engines share (SeenSet, TxQueue), and the
// canonical drop-reason vocabulary shared by every strategy's drop
// accounting.
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
	// content name and dst as advisory.
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
// Semantics are load-bearing for replay determinism: a duplicate hit
// does NOT refresh the remembered timestamp (the horizon measures from
// first sight), and the table is swept of stale entries only when it
// grows past 256 fingerprints.
type Dedup struct {
	// Horizon is how long a fingerprint is remembered.
	Horizon time.Duration
	seen    map[uint64]time.Time
}

// Duplicate records fp at now and reports whether it was already seen
// within the horizon.
func (d *Dedup) Duplicate(now time.Time, fp uint64) bool {
	if d.Horizon <= 0 {
		return false
	}
	if last, ok := d.seen[fp]; ok && now.Sub(last) < d.Horizon {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[uint64]time.Time)
	}
	d.seen[fp] = now
	if len(d.seen) > 256 {
		for k, v := range d.seen {
			if now.Sub(v) >= d.Horizon {
				delete(d.seen, k)
			}
		}
	}
	return false
}

// Len returns the number of remembered fingerprints (for tests).
func (d *Dedup) Len() int { return len(d.seen) }

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

// Len returns the number of remembered keys (for tests).
func (s *SeenSet[K]) Len() int { return len(s.at) }

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

// TxEnv is the part of an engine's host a TxQueue drives: timers and the
// radio. Every core.Env satisfies it.
type TxEnv interface {
	Schedule(d time.Duration, fn func()) (cancel func())
	Transmit(frame []byte) (time.Duration, error)
}

// TxQueue is the transmit path the table-free engines share: a FIFO of
// packets awaiting the half-duplex radio, one frame on the air at a
// time. It accounts tx.frames/tx.bytes and the marshal/txerror drops in
// the engine's registry under the canonical names.
type TxQueue struct {
	env          TxEnv
	reg          *metrics.Registry
	queue        []*packet.Packet
	transmitting bool
	stopped      bool
}

// NewTxQueue returns an empty queue transmitting through env and
// accounting into reg.
func NewTxQueue(env TxEnv, reg *metrics.Registry) *TxQueue {
	return &TxQueue{env: env, reg: reg}
}

// Enqueue admits p for transmission after delay (immediately when delay
// is not positive).
func (q *TxQueue) Enqueue(p *packet.Packet, delay time.Duration) {
	if delay > 0 {
		q.env.Schedule(delay, func() { q.Enqueue(p, 0) })
		return
	}
	q.queue = append(q.queue, p)
	q.pump()
}

// pump puts the head of the queue on the air when the radio is free. A
// packet that fails to marshal is dropped and the next one tried; a
// Transmit error drops the packet and leaves the queue to the next
// Enqueue or TxDone.
func (q *TxQueue) pump() {
	if q.stopped || q.transmitting || len(q.queue) == 0 {
		return
	}
	p := q.queue[0]
	q.queue[0] = nil
	q.queue = q.queue[1:]
	frame, err := packet.Marshal(p)
	if err != nil {
		q.reg.Counter("drop." + DropMarshal).Inc()
		q.pump()
		return
	}
	if _, err := q.env.Transmit(frame); err != nil {
		q.reg.Counter("drop." + DropTxError).Inc()
		return
	}
	q.transmitting = true
	q.reg.Counter("tx.frames").Inc()
	q.reg.Counter("tx.bytes").Add(uint64(len(frame)))
}

// TxDone is the host's signal that the frame on the air ended; the next
// queued packet goes out.
func (q *TxQueue) TxDone() {
	if q.stopped {
		return
	}
	q.transmitting = false
	q.pump()
}

// Stop silences the queue: nothing further is transmitted, including
// packets whose Enqueue delay has yet to elapse.
func (q *TxQueue) Stop() { q.stopped = true }
