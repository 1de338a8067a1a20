// Package trace is the repository's one recorder of simulation events:
// the narrative (PHY, routing, app, failures — one formatted line per
// occurrence, for debugging and the CLI's timeline) and hop-level span
// segments (KindSpan: structured, priced, allocation-free; the
// vocabulary and the analysis live in internal/span). Events that
// concern a specific datagram carry the packet's trace ID, so a packet's
// full hop-by-hop journey — origin, per-hop transmissions, forwarding
// decisions, and the eventual delivery or drop reason — can be
// reconstructed by filtering on that ID.
//
// The tracer is a bounded ring shared by both classes: long simulations
// keep the most recent events instead of growing without bound. An
// optional sink receives every event as one JSON line the moment it is
// emitted, so a full unbounded record can be streamed to a file (see
// SetSink) while the ring stays small.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind string

// Well-known event kinds.
const (
	KindTx      Kind = "tx"
	KindRx      Kind = "rx"
	KindDrop    Kind = "drop"
	KindRoute   Kind = "route"
	KindApp     Kind = "app"
	KindStream  Kind = "stream"
	KindFailure Kind = "failure"
	// KindSpan marks hop-level span segments (see internal/span): causal
	// timing segments of one packet's journey — enqueue, queue-wait,
	// airtime, rx, forward, retransmit, deliver, drop — carrying the
	// segment name in Event.Seg and its duration in Event.Dur. It is the
	// one kind outside the narrative, with its own switch (see New).
	KindSpan Kind = "span"
	// KindHealth marks mesh health-monitor events (see internal/health):
	// violation detections (loops, blackholes, silent nodes, stuck duty
	// budgets, replay anomalies) with the violation kind in Event.Seg.
	KindHealth Kind = "health"
	// KindControl marks control-plane events (see internal/control):
	// reconcile decisions, command dispatches, acks, playbook actions,
	// and escalations from the self-healing controller.
	KindControl Kind = "control"
	// KindInterest marks ICN interest lifecycle events (see
	// internal/icn): expression, relay, PIT aggregation, cache hits,
	// and interest drops.
	KindInterest Kind = "interest"
	// KindData marks ICN named-data movement: production, cache fill,
	// breadcrumb forwarding, and delivery to the requester.
	KindData Kind = "data"
	// KindSlotBeacon marks slotted-strategy schedule beacons (see
	// internal/slotted): slot assignments advertised and heard.
	KindSlotBeacon Kind = "slot-beacon"
)

// TraceID identifies one datagram end to end. It is derived from the
// packet's hop-invariant fields (see packet.Packet.TraceID), so every
// node on the path computes the same ID without any wire-format change.
// Zero means "not tied to a packet".
type TraceID uint64

// String renders the ID as 16 lowercase hex digits, the form accepted by
// ParseTraceID and by the meshsim/packetdump -trace flags.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex form produced by TraceID.String (an
// optional 0x prefix is accepted).
func ParseTraceID(s string) (TraceID, error) {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		s = s[2:]
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace ID %q: %w", s, err)
	}
	return TraceID(v), nil
}

// Event is one recorded occurrence.
type Event struct {
	At   time.Time
	Node string
	Kind Kind
	// Trace ties the event to a specific datagram; zero for events that
	// are not about one packet (beacons of state, failures, moves).
	Trace  TraceID
	Detail string
	// Seg carries structured sub-classification for KindSpan (the span
	// segment name: enqueue, queue-wait, airtime, ...) and KindHealth
	// (the violation kind: loop, blackhole, silent, ...). Empty for
	// other kinds.
	Seg string
	// Dur is the segment's measured duration (KindSpan only); zero for
	// instantaneous segments and for other kinds.
	Dur time.Duration
}

func (e Event) String() string {
	seg := ""
	if e.Seg != "" {
		seg = " " + e.Seg
		if e.Dur > 0 {
			seg += fmt.Sprintf("(%v)", e.Dur)
		}
	}
	if e.Trace != 0 {
		return fmt.Sprintf("%s %-6s %-8s [%v]%s %s",
			e.At.Format("15:04:05.000"), e.Node, e.Kind, e.Trace, seg, e.Detail)
	}
	return fmt.Sprintf("%s %-6s %-8s%s %s", e.At.Format("15:04:05.000"), e.Node, e.Kind, seg, e.Detail)
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	At     time.Time `json:"at"`
	Node   string    `json:"node"`
	Kind   string    `json:"kind"`
	Trace  string    `json:"trace,omitempty"`
	Detail string    `json:"detail"`
	Seg    string    `json:"seg,omitempty"`
	DurNS  int64     `json:"dur_ns,omitempty"`
}

func (e Event) toJSON() jsonEvent {
	j := jsonEvent{At: e.At, Node: e.Node, Kind: string(e.Kind), Detail: e.Detail,
		Seg: e.Seg, DurNS: int64(e.Dur)}
	if e.Trace != 0 {
		j.Trace = e.Trace.String()
	}
	return j
}

func (j jsonEvent) toEvent() (Event, error) {
	e := Event{At: j.At, Node: j.Node, Kind: Kind(j.Kind), Detail: j.Detail,
		Seg: j.Seg, Dur: time.Duration(j.DurNS)}
	if j.Trace != "" {
		id, err := ParseTraceID(j.Trace)
		if err != nil {
			return Event{}, err
		}
		e.Trace = id
	}
	return e, nil
}

// Tracer collects events. It is safe for concurrent use. The zero value is
// a disabled tracer that drops everything; use New for a recording tracer.
//
// Events come in two classes, each switched on or off at construction:
// span segments (KindSpan) and the narrative (every other kind). Both
// share the ring and the sink.
type Tracer struct {
	// narrative and segments never change after New, so the hot-path
	// tests Enabled and Segments read them without the lock.
	narrative, segments bool

	mu      sync.Mutex
	events  []Event // the ring: pre-sized, so recording never allocates
	dropped uint64
	start   int // ring start index once full

	sink    io.Writer
	sinkErr error
}

// New returns a tracer that records the narrative when narrative is
// positive and span segments when segments is positive, retaining the
// most recent narrative+segments events of whichever classes are on.
func New(narrative, segments int) *Tracer {
	return &Tracer{
		narrative: narrative > 0,
		segments:  segments > 0,
		events:    make([]Event, 0, max(narrative, 0)+max(segments, 0)),
	}
}

// SetSink streams every subsequently emitted event to w as one JSON line,
// in addition to the ring. The sink sees all events regardless of ring
// capacity. Writes happen under the tracer's lock in emission order; the
// first write error disables the sink (see SinkErr).
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.sinkErr = nil
	t.mu.Unlock()
}

// SinkErr returns the write error that disabled the sink, if any.
func (t *Tracer) SinkErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Emit records a narrative event not tied to one packet. On a nil tracer
// or with the narrative off it is a no-op, so call sites need no guards.
func (t *Tracer) Emit(at time.Time, node string, kind Kind, format string, args ...any) {
	t.EmitPacket(at, node, kind, 0, format, args...)
}

// EmitPacket records a narrative event about the datagram identified by
// id. A zero id degrades to a plain event. On a nil tracer or with the
// narrative off it is a no-op.
func (t *Tracer) EmitPacket(at time.Time, node string, kind Kind, id TraceID, format string, args ...any) {
	if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Node: node, Kind: kind, Trace: id, Detail: fmt.Sprintf(format, args...)})
}

// EmitSeg records a structured segmented event — a span segment
// (KindSpan, recorded when segments are on) or a health violation
// (KindHealth, part of the narrative) — with a pre-formatted detail
// string. It takes no format arguments, so hot callers pass constant
// details without boxing a variadic slice, and with no sink attached it
// allocates nothing: a segment is one slot of the ring.
func (t *Tracer) EmitSeg(at time.Time, node string, kind Kind, id TraceID, seg string, dur time.Duration, detail string) {
	if kind == KindSpan {
		if !t.Segments() {
			return
		}
	} else if !t.Enabled() {
		return
	}
	t.record(Event{At: at, Node: node, Kind: kind, Trace: id, Seg: seg, Dur: dur, Detail: detail})
}

// record appends one assembled event to the sink and the ring.
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink != nil && t.sinkErr == nil {
		if b, err := json.Marshal(ev.toJSON()); err == nil {
			b = append(b, '\n')
			if _, werr := t.sink.Write(b); werr != nil {
				t.sinkErr = werr
			}
		}
	}
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.start] = ev
	t.start = (t.start + 1) % len(t.events)
	t.dropped++
}

// Enabled reports whether the tracer records the narrative; callers use
// it to skip building event context (decoding a frame for its trace ID,
// boxing format arguments) when it does not.
func (t *Tracer) Enabled() bool { return t != nil && t.narrative }

// Segments reports whether the tracer records span segments.
func (t *Tracer) Segments() bool { return t != nil && t.segments }

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Dropped returns how many events were evicted from the ring. Eviction
// only starts once the ring has filled to capacity: a tracer that never
// wraps reports zero, however many events it recorded. Events streamed to
// a sink are never counted as dropped — the sink saw them.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteTo renders the retained events, one per line.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, ev := range t.Events() {
		k, err := fmt.Fprintln(w, ev)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadJSONL parses a JSONL event stream produced by a sink.
// Blank lines are skipped; a malformed or over-long (> 1 MiB) line fails
// with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var j jsonEvent
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ev, err := j.toEvent()
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped inside the line after the last one it
		// returned (one longer than its buffer, or a failed read).
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return out, nil
}

// Filter returns the events carrying the given trace ID, preserving
// order — the packet's reconstructed journey.
func Filter(evs []Event, id TraceID) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Trace == id {
			out = append(out, ev)
		}
	}
	return out
}
