package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

func TestSegNames(t *testing.T) {
	for s := Seg(1); s < segCount; s++ {
		name := s.String()
		if name == "unknown" {
			t.Fatalf("segment %d has no name", s)
		}
		back, ok := ParseSeg(name)
		if !ok || back != s {
			t.Fatalf("ParseSeg(%q) = %v, %v; want %v", name, back, ok, s)
		}
	}
	if Seg(0).String() != "unknown" || segCount.String() != "unknown" {
		t.Fatal("out-of-range segments must render as unknown")
	}
	if _, ok := ParseSeg("bogus"); ok {
		t.Fatal("ParseSeg accepted a bogus name")
	}
}

func TestTraceIDs(t *testing.T) {
	ids := TraceIDs([]Record{
		{At: at(0), Trace: 7, Node: "0001", Seg: SegEnqueue, Detail: "DATA"},
		{At: at(time.Second), Trace: 9, Node: "0001", Seg: SegEnqueue, Detail: "DATA"},
		{At: at(2 * time.Second), Trace: 7, Node: "0002", Seg: SegRx, Detail: "DATA"},
	})
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Fatalf("TraceIDs = %v, want [7 9] in first-seen order", ids)
	}
}

// TestFromEventsRoundTrip pushes segments through the tracer's ring and
// its JSONL sink and back: packetdump -spans must see exactly what the
// engines emitted, and unknown segment names and other kinds are skipped.
func TestFromEventsRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	tr := trace.New(8, 16)
	tr.SetSink(&sink)

	want := []Record{
		{At: at(0), Trace: 42, Node: "0001", Seg: SegEnqueue, Detail: "DATA"},
		{At: at(time.Second), Trace: 42, Node: "0001", Seg: SegAirtime, Dur: 70 * time.Millisecond, Detail: "DATA"},
		{At: at(2 * time.Second), Trace: 42, Node: "0002", Seg: SegDrop, Detail: "noroute"},
	}
	for _, r := range want {
		tr.EmitSeg(r.At, r.Node, trace.KindSpan, r.Trace, r.Seg.String(), r.Dur, r.Detail)
	}
	tr.EmitSeg(at(3*time.Second), "0002", trace.KindSpan, 42, "teleport", 0, "")
	tr.EmitPacket(at(3*time.Second), "0002", trace.KindDrop, 42, "drop: no route")

	evs, err := trace.ReadJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	for name, back := range map[string][]Record{"sink": FromEvents(evs), "ring": FromEvents(tr.Events())} {
		if len(back) != len(want) {
			t.Fatalf("%s: round-tripped %d records, want %d", name, len(back), len(want))
		}
		for i := range back {
			if !back[i].At.Equal(want[i].At) || back[i].Trace != want[i].Trace ||
				back[i].Node != want[i].Node || back[i].Seg != want[i].Seg ||
				back[i].Dur != want[i].Dur || back[i].Detail != want[i].Detail {
				t.Fatalf("%s: record %d: got %+v, want %+v", name, i, back[i], want[i])
			}
		}
	}
}

// threeHop builds the canonical A -> B -> C journey.
func threeHop() []Record {
	const id = trace.TraceID(99)
	return []Record{
		{At: at(0), Trace: id, Node: "000A", Seg: SegEnqueue, Detail: "DATA"},
		{At: at(10 * time.Millisecond), Trace: id, Node: "000A", Seg: SegQueueWait, Dur: 10 * time.Millisecond},
		{At: at(10 * time.Millisecond), Trace: id, Node: "000A", Seg: SegAirtime, Dur: 70 * time.Millisecond, Detail: "DATA"},
		{At: at(80 * time.Millisecond), Trace: id, Node: "000B", Seg: SegRx, Detail: "DATA"},
		{At: at(80 * time.Millisecond), Trace: id, Node: "000B", Seg: SegAirtime, Dur: 70 * time.Millisecond, Detail: "DATA"},
		{At: at(80 * time.Millisecond), Trace: id, Node: "000B", Seg: SegForward, Detail: "DATA"},
		{At: at(150 * time.Millisecond), Trace: id, Node: "000C", Seg: SegRx, Detail: "DATA"},
		{At: at(150 * time.Millisecond), Trace: id, Node: "000C", Seg: SegDeliver, Detail: "data"},
	}
}

func TestBuildTreeThreeHop(t *testing.T) {
	roots := BuildTree(99, threeHop())
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	a := roots[0]
	if a.Node != "000A" || len(a.Children) != 1 {
		t.Fatalf("root = %s with %d children", a.Node, len(a.Children))
	}
	b := a.Children[0]
	if b.Node != "000B" || len(b.Children) != 1 {
		t.Fatalf("second hop = %s with %d children", b.Node, len(b.Children))
	}
	c := b.Children[0]
	if c.Node != "000C" || len(c.Children) != 0 {
		t.Fatalf("third hop = %s with %d children", c.Node, len(c.Children))
	}

	m := Measure(roots)
	if m.Hops != 3 || !m.Delivered || m.Dropped {
		t.Fatalf("breakdown = %+v", m)
	}
	if m.QueueWait != 10*time.Millisecond || m.Airtime != 140*time.Millisecond {
		t.Fatalf("queue-wait %v airtime %v", m.QueueWait, m.Airtime)
	}
	if m.EndToEnd != 150*time.Millisecond {
		t.Fatalf("e2e = %v, want 150ms", m.EndToEnd)
	}
}

// TestBuildTreeOrphanRx: a reception with no visible transmission (the
// capture window missed the origin) becomes its own root, not a child.
func TestBuildTreeOrphanRx(t *testing.T) {
	recs := []Record{
		{At: at(0), Trace: 5, Node: "000B", Seg: SegRx, Detail: "DATA"},
		{At: at(time.Millisecond), Trace: 5, Node: "000B", Seg: SegDeliver, Detail: "data"},
	}
	roots := BuildTree(5, recs)
	if len(roots) != 1 || roots[0].Node != "000B" || len(roots[0].Recs) != 2 {
		t.Fatalf("roots = %+v", roots)
	}
}

func TestWriteTree(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTree(&buf, 99, threeHop()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"span tree (8 segments)",
		"● hop 000A  +0s",
		"└─ hop 000B  +80ms",
		"└─ hop 000C  +150ms",
		"queue-wait 10ms",
		"airtime 140ms",
		"e2e 150ms (delivered)",
		"breakdown: 3 hops",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	// Depth increases along the causal chain: C indents deeper than B.
	if strings.Index(out, "hop 000B") > strings.Index(out, "hop 000C") {
		t.Fatalf("hops out of order:\n%s", out)
	}

	buf.Reset()
	if err := WriteTree(&buf, 12345, threeHop()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no span segments") {
		t.Fatalf("unknown trace should render empty, got:\n%s", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, threeHop()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var meta, slices, instants int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	// 3 nodes -> 3 thread_name rows; 3 durationful segments; 5 instants.
	if meta != 3 || slices != 3 || instants != 5 {
		t.Fatalf("meta %d slices %d instants %d", meta, slices, instants)
	}
	if err := WriteChromeTrace(&buf, nil); err == nil {
		t.Fatal("empty export should error")
	}
}
