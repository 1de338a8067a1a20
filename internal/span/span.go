// Package span reads hop-level causal spans: per trace ID, the timing
// segments of a packet's life — enqueue, queue-wait, airtime, rx,
// forward, retransmit, deliver, and drop — across every node it visits.
//
// It owns the segment vocabulary (Seg) and the analysis; it records
// nothing. Engines emit a segment as a KindSpan event on the one
// trace.Tracer (Tracer.EmitSeg with Seg.String()), and FromEvents
// decodes such events — from the tracer's ring or from a JSONL file —
// back into Records.
//
// The analysis reconstructs a causal hop tree from the time-ordered
// segments of one trace ID: each contiguous run of segments on one node
// is a hop, parented to the hop whose transmission it received — in the
// deterministic simulator the ordering is exact, and on the live
// runtimes it is as good as the wall clocks behind Env.Now.
package span

import (
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

// Record is one decoded span segment.
type Record struct {
	// At is the segment's timestamp (virtual under simulation).
	At time.Time
	// Trace is the packet's causal trace ID.
	Trace trace.TraceID
	// Node is the mesh address (rendered) of the node the segment
	// happened on.
	Node string
	// Seg is the segment kind.
	Seg Seg
	// Dur is the measured duration for SegQueueWait and SegAirtime;
	// zero for instantaneous segments.
	Dur time.Duration
	// Detail is a short constant annotation — the drop reason for
	// SegDrop, the packet type otherwise.
	Detail string
}

// FromEvents converts the KindSpan events of a trace stream (the
// tracer's ring, or a file read by trace.ReadJSONL) into span records,
// preserving order. Events of other kinds, and segments this version
// does not name, are ignored.
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
