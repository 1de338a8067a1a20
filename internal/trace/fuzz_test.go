package trace_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/span"
	"repro/internal/trace"
)

// FuzzReadJSONL holds the boundary packetdump -events reads hostile bytes
// through: any input either parses or fails naming a line, and whatever
// parses renders — every span tree and the Chrome export — without a
// panic, whatever the segments claim (unknown names, negative durations,
// zero and duplicate timestamps, a reception nobody transmitted).
func FuzzReadJSONL(f *testing.F) {
	t0 := time.Date(2022, 7, 1, 12, 0, 0, 0, time.UTC)

	// What a sink writes: the narrative of TestJSONLRoundTrip and the
	// canonical three-hop journey of the span tests.
	var sink bytes.Buffer
	tr := trace.New(16, 16)
	tr.SetSink(&sink)
	tr.EmitPacket(t0, "0001", trace.KindTx, 0xabc, "frame out")
	tr.Emit(t0.Add(time.Second), "0002", trace.KindFailure, "node killed")
	f.Add(append([]byte(nil), sink.Bytes()...))
	const id = trace.TraceID(99)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	tr.EmitSeg(ms(0), "000A", trace.KindSpan, id, "enqueue", 0, "DATA")
	tr.EmitSeg(ms(10), "000A", trace.KindSpan, id, "queue-wait", 10*time.Millisecond, "")
	tr.EmitSeg(ms(10), "000A", trace.KindSpan, id, "airtime", 70*time.Millisecond, "DATA")
	tr.EmitSeg(ms(80), "000B", trace.KindSpan, id, "rx", 0, "DATA")
	tr.EmitSeg(ms(80), "000B", trace.KindSpan, id, "airtime", 70*time.Millisecond, "DATA")
	tr.EmitSeg(ms(80), "000B", trace.KindSpan, id, "forward", 0, "DATA")
	tr.EmitSeg(ms(150), "000C", trace.KindSpan, id, "rx", 0, "DATA")
	tr.EmitSeg(ms(150), "000C", trace.KindSpan, id, "deliver", 0, "data")
	f.Add(append([]byte(nil), sink.Bytes()...))

	for _, s := range []string{
		"",
		"\n\n",
		"{bogus\n",
		`{"at":"2022-07-01T12:00:00Z","node":"n","kind":"span","trace":"zz","seg":"rx"}`,
		// An unknown segment, a negative duration, the zero time twice,
		// and a reception with no transmission before it.
		`{"at":"2022-07-01T12:00:00Z","node":"a","kind":"span","trace":"01","detail":"","seg":"teleport"}
{"at":"2022-07-01T12:00:00Z","node":"a","kind":"span","trace":"01","detail":"","seg":"airtime","dur_ns":-5}
{"at":"0001-01-01T00:00:00Z","node":"b","kind":"span","trace":"01","detail":"","seg":"rx"}
{"at":"0001-01-01T00:00:00Z","node":"b","kind":"span","trace":"01","detail":"","seg":"rx"}
{"at":"0001-01-01T00:00:00Z","node":"","kind":"span","trace":"02","detail":"x","seg":"drop","dur_ns":9223372036854775807}
`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if evs != nil || !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error %q names no line (or came with %d events)", err, len(evs))
			}
			return
		}
		recs := span.FromEvents(evs)
		for _, id := range span.TraceIDs(recs) {
			if err := span.WriteTree(io.Discard, id, recs); err != nil {
				t.Fatalf("WriteTree(%v): %v", id, err)
			}
		}
		if len(recs) > 0 {
			if err := span.WriteChromeTrace(io.Discard, recs); err != nil {
				t.Fatalf("WriteChromeTrace: %v", err)
			}
		}
	})
}
