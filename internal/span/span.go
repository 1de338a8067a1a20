// Package span records hop-level causal spans: per trace ID, the timing
// segments of a packet's life — enqueue, queue-wait, airtime, rx,
// forward, retransmit, deliver, and drop — across every node it visits.
//
// The capture side is a fixed-size ring of value-type records (a flight
// recorder): with no tracer attached, recording a segment takes a mutex
// and writes one slot, allocating nothing, so span capture can stay armed
// on the hot path permanently. Attaching a trace.Tracer additionally
// emits every segment as a KindSpan JSONL event through the tracer's
// sink, which is what packetdump -spans and the Chrome trace export
// consume.
//
// The analysis side reconstructs a causal hop tree from the time-ordered
// segments of one trace ID: each contiguous run of segments on one node
// is a hop, parented to the hop whose transmission it received — in the
// deterministic simulator the ordering is exact, and on the live
// runtimes it is as good as the wall clocks behind Env.Now.
package span

import (
	"sync"
	"time"

	"repro/internal/trace"
)

// Seg classifies one span segment.
type Seg uint8

// Span segments, in the order they occur along a hop.
const (
	// SegEnqueue marks admission to a node's transmit queue.
	SegEnqueue Seg = iota + 1
	// SegQueueWait is the head-of-line wait between enqueue and the
	// radio accepting the frame; Dur carries the measured wait.
	SegQueueWait
	// SegAirtime is the frame's on-air time; Dur carries the airtime.
	SegAirtime
	// SegRx marks reception and acceptance of the frame at a node.
	SegRx
	// SegForward marks the decision to relay the packet another hop.
	SegForward
	// SegRetransmit marks an ARQ retransmission of a stream chunk.
	SegRetransmit
	// SegDeliver marks delivery to the application (or, for the gateway
	// uplink leg, acknowledgment by the backend).
	SegDeliver
	// SegDrop terminates a span with the drop reason in Detail. Every
	// drop.* trace event pairs with exactly one SegDrop record.
	SegDrop
	// SegCacheHit marks an ICN content-store hit: the node answered an
	// interest from its cache instead of relaying it toward the
	// producer, so the hop tree shows where a cached reply originated.
	SegCacheHit

	segCount
)

// segNames are constant so hot-path emission never formats.
var segNames = [segCount]string{
	SegEnqueue:    "enqueue",
	SegQueueWait:  "queue-wait",
	SegAirtime:    "airtime",
	SegRx:         "rx",
	SegForward:    "forward",
	SegRetransmit: "retransmit",
	SegDeliver:    "deliver",
	SegDrop:       "drop",
	SegCacheHit:   "cache-hit",
}

func (s Seg) String() string {
	if s == 0 || s >= segCount {
		return "unknown"
	}
	return segNames[s]
}

// ParseSeg maps a segment name (as carried in a KindSpan event's Seg
// field) back to its Seg, reporting whether it is known.
func ParseSeg(name string) (Seg, bool) {
	for s := Seg(1); s < segCount; s++ {
		if segNames[s] == name {
			return s, true
		}
	}
	return 0, false
}

// Record is one captured span segment. It is a value type: the ring holds
// records inline and recording one copies it into a pre-allocated slot.
type Record struct {
	// At is the segment's timestamp (virtual under simulation).
	At time.Time
	// Trace is the packet's causal trace ID.
	Trace trace.TraceID
	// Node is the mesh address (rendered) of the node the segment
	// happened on; hosts pass a cached string so recording stays
	// allocation-free.
	Node string
	// Seg is the segment kind.
	Seg Seg
	// Dur is the measured duration for SegQueueWait and SegAirtime;
	// zero for instantaneous segments.
	Dur time.Duration
	// Detail is a short constant annotation — the drop reason for
	// SegDrop, the packet type otherwise. Hot callers pass constants.
	Detail string
}

// Recorder is a bounded flight recorder of span segments, safe for
// concurrent use. The zero value is unusable; use NewRecorder.
type Recorder struct {
	mu     sync.Mutex
	buf    []Record
	next   int
	full   bool
	total  uint64
	tracer *trace.Tracer
}

// NewRecorder returns a recorder retaining the most recent capacity
// segments. capacity <= 0 means 8192.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 8192
	}
	return &Recorder{buf: make([]Record, capacity)}
}

// AttachTracer additionally emits every subsequently recorded segment as
// a KindSpan event through t (and so to t's JSONL sink). Pass nil to
// detach and restore the zero-allocation flight-recorder-only path.
func (r *Recorder) AttachTracer(t *trace.Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracer = t
	r.mu.Unlock()
}

// Record captures one segment. On a nil recorder it is a no-op, so call
// sites need no guards. With no tracer attached it allocates nothing.
func (r *Recorder) Record(at time.Time, node string, id trace.TraceID, seg Seg, dur time.Duration, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = Record{At: at, Trace: id, Node: node, Seg: seg, Dur: dur, Detail: detail}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	t := r.tracer
	r.mu.Unlock()
	if t != nil {
		t.EmitSeg(at, node, trace.KindSpan, id, seg.String(), dur, detail)
	}
}

// Total returns how many segments were ever recorded (including ones the
// ring has since evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Records returns the retained segments in capture order.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Record(nil), r.buf[:r.next]...)
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// FromEvents converts the KindSpan events of a trace stream (as read by
// trace.ReadJSONL) back into span records, preserving order. Events of
// other kinds are ignored.
func FromEvents(evs []trace.Event) []Record {
	var out []Record
	for _, ev := range evs {
		if ev.Kind != trace.KindSpan {
			continue
		}
		seg, ok := ParseSeg(ev.Seg)
		if !ok {
			continue
		}
		out = append(out, Record{
			At: ev.At, Trace: ev.Trace, Node: ev.Node,
			Seg: seg, Dur: ev.Dur, Detail: ev.Detail,
		})
	}
	return out
}
