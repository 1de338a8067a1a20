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

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(t0, "0001", 1, SegRx, 0, "") // must not panic
	r.AttachTracer(nil)
	if r.Total() != 0 || r.Records() != nil {
		t.Fatal("nil recorder must report nothing")
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(at(time.Duration(i)*time.Second), "0001", trace.TraceID(i), SegRx, 0, "")
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := trace.TraceID(i + 2); rec.Trace != want {
			t.Fatalf("record %d trace = %v, want %v (oldest-first after wrap)", i, rec.Trace, want)
		}
	}
}

func TestTraceIDs(t *testing.T) {
	r := NewRecorder(16)
	r.Record(at(0), "0001", 7, SegEnqueue, 0, "DATA")
	r.Record(at(time.Second), "0001", 9, SegEnqueue, 0, "DATA")
	r.Record(at(2*time.Second), "0002", 7, SegRx, 0, "DATA")
	ids := TraceIDs(r.Records())
	if len(ids) != 2 || ids[0] != 7 || ids[1] != 9 {
		t.Fatalf("TraceIDs = %v, want [7 9] in first-seen order", ids)
	}
}

// TestFromEventsRoundTrip pushes records through the tracer's JSONL sink
// and back: packetdump -spans must see exactly what the recorder saw.
func TestFromEventsRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	tr := trace.New(64)
	tr.SetSink(&sink)
	r := NewRecorder(16)
	r.AttachTracer(tr)

	r.Record(at(0), "0001", 42, SegEnqueue, 0, "DATA")
	r.Record(at(time.Second), "0001", 42, SegAirtime, 70*time.Millisecond, "DATA")
	r.Record(at(2*time.Second), "0002", 42, SegDrop, 0, "noroute")

	evs, err := trace.ReadJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	back := FromEvents(evs)
	want := r.Records()
	if len(back) != len(want) {
		t.Fatalf("round-tripped %d records, want %d", len(back), len(want))
	}
	for i := range back {
		if !back[i].At.Equal(want[i].At) || back[i].Trace != want[i].Trace ||
			back[i].Node != want[i].Node || back[i].Seg != want[i].Seg ||
			back[i].Dur != want[i].Dur || back[i].Detail != want[i].Detail {
			t.Fatalf("record %d: got %+v, want %+v", i, back[i], want[i])
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

// TestRecordNoSinkZeroAlloc is the hot-path contract: with no tracer
// attached, recording a segment allocates nothing, so span capture can
// stay armed permanently.
func TestRecordNoSinkZeroAlloc(t *testing.T) {
	r := NewRecorder(1024)
	node := "0001"
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(t0, node, 42, SegAirtime, 70*time.Millisecond, "DATA")
	})
	if allocs != 0 {
		t.Fatalf("Record with no sink allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkRecordNoSink(b *testing.B) {
	r := NewRecorder(8192)
	node := "0001"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(t0, node, 42, SegAirtime, 70*time.Millisecond, "DATA")
	}
}
