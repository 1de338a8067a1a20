package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/trace"
)

func testReading(i int) Reading {
	return Reading{
		From:    0x0002,
		To:      0x0001,
		Trace:   trace.TraceID(0x1000 + i),
		Payload: []byte{byte(i), byte(i >> 8)},
		At:      time.Date(2022, 7, 1, 0, 0, i, 0, time.UTC),
	}
}

// peek returns up to n pending readings from the head without touching
// the queue.
func peek(s *spool, n int) []Reading {
	all := s.pendingReadings()
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// ackHead takes the next batch of up to n and acknowledges it.
func ackHead(s *spool, n int) error {
	batch, seqs := s.take(n)
	return s.ackAt(batch, seqs, time.Time{})
}

func TestSpoolMemoryOnlyFIFO(t *testing.T) {
	s, err := openSpool("", 4, 16, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if dup, _, _, err := s.add(testReading(i)); dup || err != nil {
			t.Fatalf("add %d: dup=%v err=%v", i, dup, err)
		}
	}
	if got := peek(s, 2); len(got) != 2 || got[0].Trace != testReading(0).Trace {
		t.Fatalf("peek returned %v", got)
	}
	if err := ackHead(s, 2); err != nil {
		t.Fatal(err)
	}
	if s.len() != 1 || peek(s, 1)[0].Trace != testReading(2).Trace {
		t.Fatalf("after ack: len=%d", s.len())
	}
}

func TestSpoolDedup(t *testing.T) {
	s, err := openSpool("", 4, 16, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	r := testReading(1)
	if dup, _, _, _ := s.add(r); dup {
		t.Fatal("first add judged a duplicate")
	}
	if dup, _, _, _ := s.add(r); !dup {
		t.Fatal("second add admitted, want duplicate")
	}
	// Still a duplicate after upload: the horizon outlives the queue.
	if err := ackHead(s, 1); err != nil {
		t.Fatal(err)
	}
	if dup, _, _, _ := s.add(r); !dup {
		t.Fatal("post-ack add admitted, want duplicate")
	}
}

func TestSpoolDropPolicies(t *testing.T) {
	// A full spool evicts the head and admits the newcomer.
	s, _ := openSpool("", 2, 16, metrics.NewRegistry())
	s.add(testReading(0))
	s.add(testReading(1))
	dup, evictedID, evicted, _ := s.add(testReading(2))
	if dup || !evicted || evictedID != testReading(0).Trace {
		t.Fatalf("full spool: dup=%v evicted=%v %v", dup, evicted, evictedID)
	}
	if s.len() != 2 || peek(s, 1)[0].Trace != testReading(1).Trace {
		t.Fatalf("queue state wrong after the eviction")
	}
}

func TestSpoolReplayAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if dup, _, _, err := s.add(testReading(i)); dup || err != nil {
			t.Fatalf("add %d: dup=%v err=%v", i, dup, err)
		}
	}
	// Upload the first two, then "crash".
	if err := ackHead(s, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	s2, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s2.replayed != 3 || s2.len() != 3 {
		t.Fatalf("replayed %d pending, want 3", s2.len())
	}
	got := peek(s2, 3)
	for i, r := range got {
		want := testReading(i + 2)
		if r.Trace != want.Trace || string(r.Payload) != string(want.Payload) || !r.At.Equal(want.At) {
			t.Errorf("replayed[%d] = %+v, want %+v", i, r, want)
		}
	}
	// Uploaded readings must still be recognized as duplicates.
	if dup, _, _, _ := s2.add(testReading(0)); !dup {
		t.Errorf("replayed horizon lost an uploaded ID")
	}
}

func TestSpoolReplayToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s.add(testReading(0))
	s.add(testReading(1))
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","r":{"from":2,"to"`)
	f.Close()

	s2, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("torn tail must not poison the spool: %v", err)
	}
	if s2.len() != 2 {
		t.Fatalf("replayed %d, want the 2 intact readings", s2.len())
	}
}

func TestSpoolTornTailTruncatedBeforeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s.add(testReading(0))
	s.add(testReading(1))
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"put","r":{"from":2,"to"`)
	f.Close()

	// First restart tolerates the torn tail and must truncate it, so the
	// next append starts on a fresh line.
	s2, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s2.len() != 2 {
		t.Fatalf("replayed %d, want 2", s2.len())
	}
	if dup, _, _, err := s2.add(testReading(2)); dup || err != nil {
		t.Fatalf("post-torn add: dup=%v err=%v", dup, err)
	}
	if err := s2.close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: without truncation the new record would have been
	// glued onto the partial line — replay would fail or drop it.
	s3, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatalf("second replay after torn tail: %v", err)
	}
	if s3.len() != 3 {
		t.Fatalf("second replay recovered %d readings, want 3", s3.len())
	}
	if got := peek(s3, 3)[2].Trace; got != testReading(2).Trace {
		t.Fatalf("post-torn record lost: tail trace %v", got)
	}
}

func TestSpoolUnterminatedFinalRecordKept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s.add(testReading(0))
	s.add(testReading(1))
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Crash exactly between the record bytes and the newline: the final
	// record is complete JSON but unframed.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s2.len() != 2 {
		t.Fatalf("replayed %d, want both readings (unterminated final record dropped?)", s2.len())
	}
	if err := s2.close(); err != nil {
		t.Fatal(err)
	}
	// The record must have been rewritten properly framed.
	s3, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s3.len() != 2 {
		t.Fatalf("re-replay recovered %d readings, want 2", s3.len())
	}
}

// TestSpoolRejectsNonCanonicalRecord: a framed line that is not exactly
// what encodePut or encodeDel writes is corruption, even when it is valid
// JSON for a record, and replay names its line.
func TestSpoolRejectsNonCanonicalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	s.add(testReading(0))
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := testReading(1)
	for _, bad := range [][]byte{
		bytes.Replace(encodePut(nil, &r), []byte(`"to":1,`), []byte(`"to": 1,`), 1),
		bytes.Replace(encodeDel(nil, 0xabcdef), []byte("abcdef"), []byte("ABCDEF"), 1),
		[]byte("{\"op\":\"put\"}\n"),
		[]byte("{\"op\":\"get\",\"trace\":\"0000000000001001\"}\n"),
		[]byte("{\"op\":\"del\",\"trace\":\"zz\"}\n"),
	} {
		if !json.Valid(bad) {
			t.Fatalf("%q is not valid JSON", bad)
		}
		wal := append(append(append([]byte(nil), good...), bad...), encodeDel(nil, r.Trace)...)
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSpool(path, 16, 64, metrics.NewRegistry())
		if err == nil {
			s.close()
			t.Fatalf("replay accepted %q", bad)
		}
		if !strings.Contains(err.Error(), "malformed record at line 2") {
			t.Fatalf("replay of %q: %v, want malformed record at line 2", bad, err)
		}
	}
}

func TestSpoolReplayTrimWritesDels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.add(testReading(i))
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a shrunk capacity: the trim must count its drops and
	// log del records so the evictees stay dead.
	reg := metrics.NewRegistry()
	s2, err := openSpool(path, 2, 64, reg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.len() != 2 || s2.replayed != 2 {
		t.Fatalf("trimmed replay: len=%d replayed=%d, want 2", s2.len(), s2.replayed)
	}
	if got := reg.Counter("gw.drop.oldest").Value(); got != 3 {
		t.Fatalf("trim dropped 3 readings but counted %d", got)
	}
	if err := s2.close(); err != nil {
		t.Fatal(err)
	}
	// A later restart with the original capacity must not resurrect them.
	s3, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s3.len() != 2 {
		t.Fatalf("trimmed readings resurrected: len=%d, want 2", s3.len())
	}
}

func TestSpoolAddKeepsReadingOnWALError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	s, err := openSpool(path, 16, 64, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the WAL: every flush now fails.
	s.f.Close()
	dup, _, _, err := s.add(testReading(0))
	if dup {
		t.Fatal("add under WAL failure judged a duplicate, want admitted")
	}
	if err == nil {
		t.Fatal("add under WAL failure reported no error")
	}
	// Durability degraded; delivery must not: the reading is queued.
	if s.len() != 1 || peek(s, 1)[0].Trace != testReading(0).Trace {
		t.Fatalf("reading lost on WAL failure: len=%d", s.len())
	}
}

func TestSpoolCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spool.wal")
	reg := metrics.NewRegistry()
	s, err := openSpool(path, 8, 4096, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Push enough churn through to cross the compaction threshold,
	// driving the rewrite the way the gateway does: check the trigger
	// after each ack and run the begin/write/finish cycle when due.
	for i := 0; i < 700; i++ {
		if dup, _, _, err := s.add(testReading(i)); dup || err != nil {
			t.Fatalf("add %d: dup=%v err=%v", i, dup, err)
		}
		if err := ackHead(s, 1); err != nil {
			t.Fatal(err)
		}
		if snap, due := s.beginCompact(); due {
			if err := s.finishCompact(s.writeCompactTmp(snap)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reg.Counter("gw.spool.compactions").Value() == 0 {
		t.Fatal("no compaction after 1400 WAL records")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 64*1024 {
		t.Fatalf("WAL grew to %d bytes despite compaction", fi.Size())
	}
	// The compacted log must still replay correctly.
	s.add(testReading(9000))
	s.close()
	s2, err := openSpool(path, 8, 4096, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if s2.len() != 1 || peek(s2, 1)[0].Trace != testReading(9000).Trace {
		t.Fatalf("post-compaction replay: len=%d", s2.len())
	}
}

func TestSpoolSeenHorizonBounded(t *testing.T) {
	s, _ := openSpool("", 4, 8, metrics.NewRegistry())
	for i := 0; i < 100; i++ {
		s.add(testReading(i))
		ackHead(s, 1)
	}
	if len(s.seen.ids) > 8 || s.seen.idx.n > 8 {
		t.Fatalf("horizon grew to %d IDs and %d index entries, cap 8", len(s.seen.ids), s.seen.idx.n)
	}
	// An ID evicted from the horizon is admissible again.
	if dup, _, _, _ := s.add(testReading(0)); dup {
		t.Fatal("evicted-horizon re-add judged a duplicate, want admitted")
	}
}

// TestSpoolReplayKeepsReadmittedReading: a reading that falls off the
// dedup horizon while pending and is re-admitted is pending twice, and a
// del that removes one copy — an ack's, an eviction's, or none for the
// ack of a copy evicted in flight — leaves the other pending across a
// restart.
func TestSpoolReplayKeepsReadmittedReading(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(s *spool)
	}{
		{"ack", func(s *spool) {
			batch, seqs := s.take(1)
			s.ackAt(batch, seqs, time.Time{})
		}},
		{"evict", func(s *spool) { s.add(testReading(3)) }},
		{"ack after eviction", func(s *spool) {
			batch, seqs := s.take(1)
			s.add(testReading(3))
			s.ackAt(batch, seqs, time.Time{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "readmit.wal")
			s, err := openSpool(path, 4, 2, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 1, 2, 0} { // 1 and 2 push 0 off the horizon
				if dup, _, _, err := s.add(testReading(i)); dup || err != nil {
					t.Fatalf("add %d: dup=%v err=%v", i, dup, err)
				}
			}
			tc.remove(s)
			want := s.pendingReadings()
			if n := slices.Index(traces(want), testReading(0).Trace); n < 0 || slices.Contains(traces(want)[n+1:], testReading(0).Trace) {
				t.Fatalf("memory holds %v, want one copy of %v", traces(want), testReading(0).Trace)
			}
			s.close()
			s2, err := openSpool(path, 4, 2, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer s2.close()
			if got := s2.pendingReadings(); !sameReadings(got, want) {
				t.Fatalf("replayed %v, the spool held %v", traces(got), traces(want))
			}
		})
	}
}

// spoolModel is the queue the sequence-addressed spool replaced, kept as
// the reference: one slice of pending entries, in flight or not; a dedup
// horizon that forgets in FIFO order; and the WAL as a list of records
// that a reopen replays by scanning it.
type spoolModel struct {
	capacity, horizon int
	pending           []modelEntry
	seen              map[trace.TraceID]bool
	order             []trace.TraceID // the horizon, oldest first
	log               []modelRecord   // what a reopen replays
	sidecar           []modelRecord   // a running compaction's file, else nil
	compacting        bool
	next              int // the next entry's admission number
	readmits          int // admissions of an ID still pending
}

// modelEntry is one pending reading; its admission number tells apart two
// entries of one ID (re-admitted after it left the horizon).
type modelEntry struct {
	n int
	r Reading
}

// modelRecord is one WAL record: a put of its reading or a del of its
// trace.
type modelRecord struct {
	put bool
	r   Reading
}

func newSpoolModel(capacity, horizon int) *spoolModel {
	return &spoolModel{capacity: capacity, horizon: horizon, seen: map[trace.TraceID]bool{}}
}

func (m *spoolModel) remember(id trace.TraceID) {
	if m.seen[id] {
		return
	}
	m.seen[id] = true
	m.order = append(m.order, id)
	if len(m.order) > m.horizon {
		delete(m.seen, m.order[0])
		m.order = m.order[1:]
	}
}

func (m *spoolModel) write(put bool, r Reading) {
	m.log = append(m.log, modelRecord{put, r})
	if m.compacting {
		m.sidecar = append(m.sidecar, modelRecord{put, r})
	}
}

func (m *spoolModel) push(r Reading) {
	m.pending = append(m.pending, modelEntry{m.next, r})
	m.next++
}

func (m *spoolModel) add(r Reading) (dup bool, evicted trace.TraceID, didEvict bool) {
	if m.seen[r.Trace] {
		return true, 0, false
	}
	if len(m.pending) >= m.capacity {
		evicted, didEvict, m.pending = m.pending[0].r.Trace, true, m.pending[1:]
		m.write(false, Reading{Trace: evicted})
	}
	for _, e := range m.pending {
		if e.r.Trace == r.Trace {
			m.readmits++
			break
		}
	}
	m.remember(r.Trace)
	m.push(r)
	m.write(true, r)
	return false, evicted, didEvict
}

// take returns the first n pending entries no batch carries.
func (m *spoolModel) take(n int, busy map[int]bool) []modelEntry {
	var out []modelEntry
	for _, e := range m.pending {
		if len(out) < n && !busy[e.n] {
			out = append(out, e)
		}
	}
	return out
}

// ack removes the entries numbered ns, whatever else is pending, and logs
// a del for each of them still pending: one evicted meanwhile has its del.
func (m *spoolModel) ack(ns []int) {
	acked := map[int]bool{}
	for _, n := range ns {
		acked[n] = true
	}
	var kept []modelEntry
	for _, e := range m.pending {
		if acked[e.n] {
			m.write(false, Reading{Trace: e.r.Trace})
		} else {
			kept = append(kept, e)
		}
	}
	m.pending = kept
}

func (m *spoolModel) beginCompact() {
	m.compacting, m.sidecar = true, nil
	for _, e := range m.pending {
		m.sidecar = append(m.sidecar, modelRecord{true, e.r})
	}
}

func (m *spoolModel) finishCompact() {
	m.log, m.sidecar, m.compacting = m.sidecar, nil, false
}

// reopen replays the log by scanning it — a put queues at the tail, a del
// removes the oldest pending entry of its trace — remembering every ID it
// names, then evicts down to capacity. It returns what the scan left out
// of the queue held in memory, or held beyond it, compared as bags of
// readings: both must be empty, for a restart keeps every pending reading
// and no other. Only which copy of an ID pending twice stays, and so
// where it queues, may differ from memory, when the later copy was acked
// first (a del names a trace, not a copy).
func (m *spoolModel) reopen() (lost, gained []Reading) {
	held := entryReadings(m.pending)
	m.pending, m.seen, m.order = nil, map[trace.TraceID]bool{}, nil
	for _, rec := range m.log {
		if rec.put {
			m.push(rec.r)
		} else if i := slices.IndexFunc(m.pending, func(e modelEntry) bool { return e.r.Trace == rec.r.Trace }); i >= 0 {
			m.pending = slices.Delete(m.pending, i, i+1)
		}
		m.remember(rec.r.Trace)
	}
	gained = entryReadings(m.pending)
	for _, r := range held {
		if i := slices.IndexFunc(gained, func(g Reading) bool { return sameReadings([]Reading{g}, []Reading{r}) }); i >= 0 {
			gained = slices.Delete(gained, i, i+1)
		} else {
			lost = append(lost, r)
		}
	}
	for len(m.pending) > m.capacity {
		m.write(false, Reading{Trace: m.pending[0].r.Trace})
		m.pending = m.pending[1:]
	}
	return lost, gained
}

func entryReadings(es []modelEntry) []Reading {
	rs := make([]Reading, len(es))
	for i, e := range es {
		rs[i] = e.r
	}
	return rs
}

// sameReadings compares two queues field by field (a replayed time is
// Equal to, not identical with, the one that was written).
func sameReadings(a, b []Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Trace != b[i].Trace ||
			!bytes.Equal(a[i].Payload, b[i].Payload) || a[i].Reliable != b[i].Reliable || !a[i].At.Equal(b[i].At) {
			return false
		}
	}
	return true
}

// chooser picks the next operation and its arguments: a *rand.Rand in
// TestSpoolMatchesScanModel, the fuzzer's bytes in FuzzSpoolOps.
type chooser interface{ Intn(n int) int }

// byteChooser reads each choice from one input byte; an exhausted input
// chooses 0.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0])
	c.b = c.b[1:]
	return v % n
}

// spoolRun drives a spool and the model through the same operations and
// demands identical depth, contents, order, evictees and horizon after
// each one.
type spoolRun struct {
	t          testing.TB
	path       string
	s          *spool
	m          *spoolModel
	out        []flight
	busy       map[int]bool // model admission numbers in flight
	compacting *compactState
	next       int // testReading index of the next fresh admission

	compactions, reopens, lateAcks int
}

// flight is one batch out: the spool's readings and sequence numbers, and
// the model's admission numbers.
type flight struct {
	batch []Reading
	seqs  []uint64
	ns    []int
}

func newSpoolRun(t testing.TB, path string, capacity, horizon int) *spoolRun {
	s, err := openSpool(path, capacity, horizon, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return &spoolRun{t: t, path: path, s: s, m: newSpoolModel(capacity, horizon), busy: map[int]bool{}}
}

// step runs one operation, chosen by c, of everything a shard does to its
// queue: admit, duplicate admit, evict at capacity, up to three batches
// out at once, acks in and out of order, failed batches that retry, acks
// of readings evicted in flight, compactions with traffic between begin
// and finish, crash and reopen.
func (r *spoolRun) step(c chooser, at string) {
	t, s, m := r.t, r.s, r.m
	t.Helper()
	what := ""
	switch p := c.Intn(100); {
	case p < 50:
		what = "admit"
		rd := testReading(r.next)
		r.next++
		mdup, mev, mok := m.add(rd)
		dup, ev, ok, err := s.add(rd)
		if err != nil {
			t.Fatal(err)
		}
		if dup != mdup || ok != mok || ev != mev {
			t.Fatalf("%s: add: spool dup=%v evicted=%v %v, model dup=%v evicted=%v %v", at, dup, ok, ev, mdup, mok, mev)
		}
	case p < 55 && r.next > 0:
		what = "duplicate admit" // of one of the last 128: some left a small horizon
		rd := testReading(r.next - 1 - c.Intn(min(r.next, 128)))
		mdup, mev, mok := m.add(rd)
		dup, ev, ok, _ := s.add(rd)
		if dup != mdup || ok != mok || ev != mev {
			t.Fatalf("%s: duplicate admit: spool dup=%v evicted=%v %v, model dup=%v evicted=%v %v", at, dup, ok, ev, mdup, mok, mev)
		}
	case p < 72 && len(r.out) < 3:
		what = "take"
		n := 1 + c.Intn(8)
		want := m.take(n, r.busy)
		batch, seqs := s.take(n)
		if !sameReadings(batch, entryReadings(want)) {
			t.Fatalf("%s: take(%d) = %v, model %v", at, n, traces(batch), traces(entryReadings(want)))
		}
		if len(batch) > 0 {
			f := flight{batch: batch, seqs: seqs}
			for _, e := range want {
				r.busy[e.n] = true
				f.ns = append(f.ns, e.n)
			}
			r.out = append(r.out, f)
		}
	case p < 92 && len(r.out) > 0:
		// The oldest batch out (in order) or any of them (out of order);
		// one time in four it failed and goes back.
		i := 0
		if c.Intn(2) == 0 {
			i = c.Intn(len(r.out))
		}
		f := r.out[i]
		r.out = append(r.out[:i], r.out[i+1:]...)
		for _, n := range f.ns {
			delete(r.busy, n)
		}
		if c.Intn(4) == 0 {
			what = "fail"
			s.release(f.seqs)
			break
		}
		what = "ack"
		if f.seqs[0] < s.base {
			r.lateAcks++
		}
		m.ack(f.ns)
		if err := s.ackAt(f.batch, f.seqs, time.Time{}); err != nil {
			t.Fatal(err)
		}
	case p < 97:
		what = "compact"
		if r.compacting != nil {
			r.finishCompact()
			r.compactions++
		} else if snap, due := s.beginCompact(); due {
			m.beginCompact()
			r.compacting = s.writeCompactTmp(snap) // finishes some steps later
		}
	case p < 99:
		what = "reopen"
		r.reopen(at, c.Intn(2) == 0)
	}
	r.check(at + " (" + what + ")")
}

func (r *spoolRun) finishCompact() {
	if err := r.s.finishCompact(r.compacting); err != nil {
		r.t.Fatal(err)
	}
	r.m.finishCompact()
	r.compacting = nil
}

// reopen closes or crashes the spool and replays its WAL: the batches
// that were out die with the process.
func (r *spoolRun) reopen(at string, crash bool) {
	t := r.t
	t.Helper()
	if r.compacting != nil {
		r.finishCompact()
	}
	if crash {
		r.s.crash()
	} else if err := r.s.close(); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.s, err = openSpool(r.path, r.m.capacity, r.m.horizon, metrics.NewRegistry()); err != nil {
		t.Fatalf("%s: reopen: %v", at, err)
	}
	if lost, gained := r.m.reopen(); len(lost)+len(gained) > 0 {
		t.Fatalf("%s: the log replays to a queue that lost %v and gained %v", at, traces(lost), traces(gained))
	}
	r.out, r.busy = nil, map[int]bool{}
	r.reopens++
	if got := r.s.seen.oldestFirst(); !slices.Equal(got, r.m.order) {
		t.Fatalf("%s: replayed horizon %v, model %v", at, got, r.m.order)
	}
}

func (r *spoolRun) check(at string) {
	r.t.Helper()
	s, m := r.s, r.m
	queued := 0
	for _, e := range m.pending {
		if !r.busy[e.n] {
			queued++
		}
	}
	want := entryReadings(m.pending)
	if s.len() != len(want) || s.queued() != queued || !sameReadings(s.pendingReadings(), want) {
		r.t.Fatalf("%s: spool len=%d queued=%d %v, model len=%d queued=%d %v",
			at, s.len(), s.queued(), traces(s.pendingReadings()), len(want), queued, traces(want))
	}
}

// finish replays the WAL a last time, checks it and closes the spool.
func (r *spoolRun) finish(at string) {
	r.t.Helper()
	r.reopen(at, false)
	r.check(at + " (final replay)")
	r.s.close()
}

// TestSpoolMatchesScanModel drives the spool and the scan-based model with
// seeded random interleavings of spoolRun.step, and demands that the WAL
// replays to the model's queue and horizon. At horizon 1<<20 the horizon
// never forgets; at 8 and 64 it forgets readings still pending, which the
// mesh then re-admits, so one ID is pending twice, and a reopen must keep
// both copies until two dels of the ID follow.
func TestSpoolMatchesScanModel(t *testing.T) {
	for _, horizon := range []int{1 << 20, 8, 64} {
		t.Run(fmt.Sprintf("horizon=%d", horizon), func(t *testing.T) {
			compactions, reopens, lateAcks, readmits := 0, 0, 0, 0
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				r := newSpoolRun(t, filepath.Join(t.TempDir(), "model.wal"), 4+rng.Intn(124), horizon)
				for step := 0; step < 2000; step++ {
					r.step(rng, fmt.Sprintf("seed %d step %d", seed, step))
				}
				r.finish(fmt.Sprintf("seed %d", seed))
				compactions, reopens, lateAcks, readmits = compactions+r.compactions, reopens+r.reopens, lateAcks+r.lateAcks, readmits+r.m.readmits
			}
			t.Logf("compactions=%d reopens=%d acks after eviction=%d re-admissions=%d", compactions, reopens, lateAcks, readmits)
			if compactions == 0 || reopens == 0 || lateAcks == 0 || (readmits == 0) != (horizon == 1<<20) {
				t.Fatalf("the walk never reached: compactions=%d reopens=%d acks after eviction=%d re-admissions=%d", compactions, reopens, lateAcks, readmits)
			}
		})
	}
}

// FuzzSpoolOps searches the walk TestSpoolMatchesScanModel samples: the
// input's bytes choose the capacity, the horizon and up to 500 operations
// (a reopen replays the whole log, so a longer walk of reopens is slow).
func FuzzSpoolOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		b := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	path := filepath.Join(f.TempDir(), "ops.wal") // one file per worker process: executions do not overlap
	f.Fuzz(func(t *testing.T, ops []byte) {
		os.Remove(path)
		c := &byteChooser{ops}
		capacity := 1 + c.Intn(128)
		horizon := []int{1 << 20, 8, 64}[c.Intn(3)]
		r := newSpoolRun(t, path, capacity, horizon)
		for step := 0; len(c.b) > 0 && step < 500; step++ {
			r.step(c, fmt.Sprintf("step %d", step))
		}
		r.finish("end")
	})
}

// traces lists a queue's trace IDs, for failure messages.
func traces(rs []Reading) []trace.TraceID {
	ids := make([]trace.TraceID, len(rs))
	for i, r := range rs {
		ids[i] = r.Trace
	}
	return ids
}

// readingJSON is a reading's schema on the wire and in the WAL, spelled
// for encoding/json: the reference the hand encoder and its twin are held
// to.
type readingJSON struct {
	From     packet.Address `json:"from"`
	To       packet.Address `json:"to"`
	Trace    string         `json:"trace"`
	Payload  []byte         `json:"payload"`
	Reliable bool           `json:"reliable,omitempty"`
	At       time.Time      `json:"at"`
}

// uplinkRequestJSON is the POST body's schema.
type uplinkRequestJSON struct {
	Gateway  packet.Address `json:"gateway"`
	Readings []readingJSON  `json:"readings"`
}

// walRecordJSON is one WAL line's schema: a put carries its reading, a
// del only its trace.
type walRecordJSON struct {
	Op      string       `json:"op"`
	Reading *readingJSON `json:"r,omitempty"`
	Trace   string       `json:"trace,omitempty"`
}

func toReadingJSON(r Reading) readingJSON {
	return readingJSON{
		From: r.From, To: r.To, Trace: r.Trace.String(),
		Payload: append([]byte{}, r.Payload...), Reliable: r.Reliable, At: r.At,
	}
}

func (j readingJSON) reading() (Reading, error) {
	id, err := trace.ParseTraceID(j.Trace)
	return Reading{From: j.From, To: j.To, Trace: id, Payload: j.Payload, Reliable: j.Reliable, At: j.At}, err
}

// TestEncodersAgree pins the hand encoders to encoding/json: appendReading,
// encodePut and encodeDel write what json.Marshal writes for the schemas
// above, and the hand-built uplink body is json.Marshal of
// uplinkRequestJSON, byte for byte. (A nil payload is the one difference:
// json writes null, the hand encoder — as it always has in the WAL — "",
// and both decode to no bytes.) Every reading, body and record must also
// be read by the encoder's twin into exactly what encoding/json reads.
func TestEncodersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+30*60), time.FixedZone("", -8*3600)}
	twinMatches(t, "appendUplinkRequest, empty batch", appendUplinkRequest(nil, 0xFFFF, nil), parseUplinkRequest, refDecodeBody)
	var batch []Reading
	var batchJSON []readingJSON
	for i := 0; i < 300; i++ {
		r := Reading{
			From:     packet.Address(rng.Intn(1 << 16)),
			To:       packet.Address(rng.Intn(1 << 16)),
			Trace:    trace.TraceID(rng.Uint64()),
			Reliable: rng.Intn(2) == 0,
			At:       time.Unix(rng.Int63n(4e9), []int64{0, 1, 120_000_000, 999_999_999}[i%4]).In(zones[rng.Intn(len(zones))]),
		}
		if n := []int{-1, 0, 1, 255}[i/4%4]; n >= 0 {
			r.Payload = make([]byte, n)
			rng.Read(r.Payload)
		}
		rj := toReadingJSON(r)
		got := appendReading(nil, &r)
		encodesAs(t, "appendReading", got, rj)
		if over := len(got) - base64.StdEncoding.EncodedLen(len(r.Payload)); over > readingMaxOverhead {
			t.Fatalf("reading encodes to %d bytes beyond its payload, readingMaxOverhead is %d", over, readingMaxOverhead)
		}
		decoded := twinMatches(t, "appendReading", got, parseWholeReading, refDecodeReading)

		put := encodePut(nil, &r)
		encodesAs(t, "encodePut", put, walRecordJSON{Op: "put", Reading: &rj})
		if got, isPut, ok := parseRecord(put[:len(put)-1]); !ok || !isPut || !reflect.DeepEqual(got, decoded) {
			t.Fatalf("parseRecord(%s) = %+v, put %v, ok %v; want %+v", put, got, isPut, ok, decoded)
		}
		del := encodeDel(nil, r.Trace)
		encodesAs(t, "encodeDel", del, walRecordJSON{Op: "del", Trace: rj.Trace})
		if got, isPut, ok := parseRecord(del[:len(del)-1]); !ok || isPut || !reflect.DeepEqual(got, Reading{Trace: r.Trace}) {
			t.Fatalf("parseRecord(%s) = %+v, put %v, ok %v", del, got, isPut, ok)
		}

		batch, batchJSON = append(batch, r), append(batchJSON, rj)
		if len(batch) == 1+i%7 {
			gw := packet.Address(rng.Intn(1 << 16))
			body := appendUplinkRequest(nil, gw, batch)
			encodesAs(t, "appendUplinkRequest", body, uplinkRequestJSON{Gateway: gw, Readings: batchJSON})
			twinMatches(t, "appendUplinkRequest", body, parseUplinkRequest, refDecodeBody)
			batch, batchJSON = nil, nil
		}
	}
}

// encodesAs fails t unless got is json.Marshal of ref, plus the newline
// that frames a WAL record when got ends in one.
func encodesAs(t *testing.T, what string, got []byte, ref any) {
	t.Helper()
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasSuffix(got, []byte{'\n'}) {
		want = append(want, '\n')
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// twinMatches fails t unless twin accepts b and yields what ref, the
// encoding/json decode, yields; it returns that value.
func twinMatches[T any](t *testing.T, what string, b []byte, twin func([]byte) (T, bool), ref func([]byte) (T, error)) T {
	t.Helper()
	got, ok := twin(b)
	if !ok {
		t.Fatalf("%s output rejected by its twin:\n%s", what, b)
	}
	want, err := ref(b)
	if err != nil {
		t.Fatalf("%s output: %v\n%s", what, err, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s output %s\ntwin decodes %+v\njson decodes %+v", what, b, got, want)
	}
	return got
}

// parseWholeReading is parseReading over an input that must hold one
// reading and nothing after it.
func parseWholeReading(b []byte) (Reading, bool) {
	r, rest, ok := parseReading(b)
	return r, ok && len(rest) == 0
}

// refDecodeReading decodes one reading by encoding/json alone.
func refDecodeReading(b []byte) (Reading, error) {
	var j readingJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return Reading{}, err
	}
	return j.reading()
}

// refDecodeBody decodes a POST body by encoding/json alone.
func refDecodeBody(b []byte) (uplinkRequest, error) {
	var j uplinkRequestJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return uplinkRequest{}, err
	}
	ur := uplinkRequest{Gateway: j.Gateway}
	for _, rj := range j.Readings {
		r, err := rj.reading()
		if err != nil {
			return uplinkRequest{}, err
		}
		ur.Readings = append(ur.Readings, r)
	}
	return ur, nil
}

// uplinkBodyCorpus is the seed corpus of the POST-body fuzzers: the
// canonical bodies appendUplinkRequest and appendReading write, and each
// respelled by one mutation that valid JSON allows but the twin refuses.
func uplinkBodyCorpus() [][]byte {
	r := Reading{
		From: 2, To: 1, Trace: 0x00ab_cdef_0123_4567,
		Payload:  []byte{0xff, 0xff, 0xff, 0x01}, // "////AQ=="
		Reliable: true,
		At:       time.Date(2022, 7, 1, 12, 30, 5, 120_000_000, time.FixedZone("", 5*3600+30*60)),
	}
	plain := r
	plain.Reliable, plain.Payload, plain.At = false, nil, time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	body := appendUplinkRequest(nil, 0x00FE, []Reading{r, plain})
	canonical := [][]byte{body, appendReading(nil, &r), appendUplinkRequest(nil, 0, nil)}
	corpus := append([][]byte(nil), canonical...)
	mutations := [][2]string{
		{`"from":2`, `"from":3`},                             // a flipped digit: canonical still
		{`"from":2`, `"from":02`},                            // a leading zero
		{`abcdef`, `ABCDEF`},                                 // uppercase hex
		{`"to":1,`, `"to": 1,`},                              // whitespace
		{`////`, `\/\/\/\/`},                                 // escapes of what needs none
		{`"from":2,"to":1`, `"to":1,"from":2`},               // reordered keys
		{`"from":2`, `"from":65536`},                         // an address out of range
		{`"payload":"////AQ=="`, `"payload":"AQ"`},           // missing padding
		{`"payload":"////AQ=="`, "\"payload\":\"AQ\r\n==\""}, // bytes base64 skips, JSON forbids
		{`"reliable":true`, `"reliable":false`},
		{`+05:30`, `+5:30`},
	}
	for _, c := range canonical {
		for _, m := range mutations {
			if mut := bytes.Replace(c, []byte(m[0]), []byte(m[1]), 1); !bytes.Equal(mut, c) {
				corpus = append(corpus, mut)
			}
		}
		corpus = append(corpus, append(append([]byte(nil), c...), "\n{}"...)) // trailing bytes
		corpus = append(corpus, append([]byte(" "), c...))
	}
	return corpus
}

// FuzzDecodeMatchesJSON searches for a POST body the backend accepts but
// reads unlike encoding/json: whenever the twin accepts a body,
// encoding/json must accept it too and decode the same value. The converse
// need not hold: the backend answers 400 to any spelling
// appendUplinkRequest does not write.
func FuzzDecodeMatchesJSON(f *testing.F) {
	for _, c := range uplinkBodyCorpus() {
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeUplinkRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := refDecodeBody(data)
		if err != nil {
			t.Fatalf("%q: the twin accepts what encoding/json rejects: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %+v\njson %+v", data, got, want)
		}
	})
}

// ackRound is the drain's inner loop at a constant backlog: take the head
// batch, acknowledge it, admit as many again.
func ackRound(s *spool, next *int, rounds int) {
	for i := 0; i < rounds; i++ {
		batch, seqs := s.take(64)
		s.ackAt(batch, seqs, time.Time{})
		for range batch {
			s.add(testReading(*next))
			*next++
		}
	}
}

// backlogSpool builds a memory-only spool holding backlog readings.
func backlogSpool(backlog int) (*spool, *int) {
	s, _ := openSpool("", 1<<30, 1024, metrics.NewRegistry())
	next := 0
	for ; next < backlog; next++ {
		s.add(testReading(next))
	}
	return s, &next
}

func BenchmarkSpoolAck(b *testing.B) {
	for _, backlog := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("backlog=%dk", backlog/1000), func(b *testing.B) {
			s, next := backlogSpool(backlog)
			b.ResetTimer()
			ackRound(s, next, b.N)
		})
	}
}

// BenchmarkEncodeUplink is the encode row of the drain's cost budget: one
// POST body for a full batch of 64 readings with 24-byte payloads.
func BenchmarkEncodeUplink(b *testing.B) {
	batch := make([]Reading, 64)
	for i := range batch {
		batch[i] = testReading(i)
		batch[i].Payload = make([]byte, 24)
	}
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = appendUplinkRequest(body[:0], 0x00FE, batch)
	}
}

// BenchmarkDecodeUplink is the backend's decode of the body
// BenchmarkEncodeUplink writes.
func BenchmarkDecodeUplink(b *testing.B) {
	batch := make([]Reading, 64)
	for i := range batch {
		batch[i] = testReading(i)
		batch[i].Payload = make([]byte, 24)
	}
	body := appendUplinkRequest(nil, 0x00FE, batch)
	var r bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, err := decodeUplinkRequest(&r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAckCostIndependentOfBacklog is the scaling gate: acknowledging the
// head batch behind a 100× deeper backlog may cost at most 5× as much. The
// scan it replaced cost ≈ 100×, so the bound is far from both and the
// fastest of several rounds keeps a busy box out of the verdict.
func TestAckCostIndependentOfBacklog(t *testing.T) {
	fastest := func(backlog int) time.Duration {
		s, next := backlogSpool(backlog)
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 7; i++ {
			start := time.Now()
			ackRound(s, next, 100)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	shallow, deep := fastest(1_000), fastest(100_000)
	t.Logf("100 acks of 64: %v behind 1k, %v behind 100k", shallow, deep)
	if deep > 5*shallow {
		t.Fatalf("100 acks of 64 took %v behind 1k readings and %v behind 100k: the cost of a batch grows with the backlog", shallow, deep)
	}
}

// TestDrainedSpoolReleasesBacklog is the spool's run-length fence: once a
// backlog drains, the spool holds as much as after a small one — within
// 1 MiB of a 1 k backlog's, where a 100 k one's array is ~9 MiB.
func TestDrainedSpoolReleasesBacklog(t *testing.T) {
	retained := func(backlog int) int64 {
		before := liveHeap()
		s, _ := backlogSpool(backlog)
		for s.len() > 0 {
			batch, seqs := s.take(64)
			s.ackAt(batch, seqs, time.Time{})
		}
		held := liveHeap() - before
		runtime.KeepAlive(s)
		return held
	}
	small, large := retained(1_000), retained(100_000)
	t.Logf("retained after draining: %d B behind 1k, %d B behind 100k", small, large)
	if large-small > 1<<20 {
		t.Fatalf("a drained spool holds %d B after a 100k backlog, %d B after 1k: the backlog's array is pinned", large, small)
	}
}

// FuzzSpoolReplay feeds arbitrary bytes to the spool as its WAL. Replay
// must return an error or a spool — never panic or hang — and a spool it
// returns must work: what it holds after an admission and an ack is what a
// reopen finds.
func FuzzSpoolReplay(f *testing.F) {
	dir := f.TempDir()
	wal := func(name string, build func(s *spool)) []byte {
		path := filepath.Join(dir, name)
		s, err := openSpool(path, 8, 64, metrics.NewRegistry())
		if err != nil {
			f.Fatal(err)
		}
		build(s)
		s.close()
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	plain := wal("plain", func(s *spool) {
		for i := 0; i < 5; i++ {
			s.add(testReading(i))
		}
		ackHead(s, 2)
	})
	f.Add(plain)
	f.Add(append(append([]byte(nil), plain...), `{"op":"put","r":{"from":2,"to"`...)) // torn tail
	f.Add(plain[:len(plain)-1])                                                       // unterminated final record
	f.Add(wal("compacted", func(s *spool) {
		for i := 0; i < 700; i++ {
			s.add(testReading(i))
			if i%3 > 0 {
				ackHead(s, 1)
			}
			if snap, due := s.beginCompact(); due {
				s.finishCompact(s.writeCompactTmp(snap))
			}
		}
	}))
	f.Add([]byte("{\"op\":\"del\",\"trace\":\"zz\"}\n"))
	f.Add([]byte("{\"op\":\"put\"}\n{}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.wal") // one file per worker process: executions do not overlap
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSpool(path, 8, 64, metrics.NewRegistry())
		if err != nil {
			return
		}
		if s.len() > 8 || s.len() != len(s.pendingReadings()) {
			t.Fatalf("replay left len=%d with %d readings, capacity 8", s.len(), len(s.pendingReadings()))
		}
		// An ID neither the horizon nor the queue knows (a pending reading
		// can have fallen off a 64-entry horizon).
		known := map[trace.TraceID]bool{}
		for _, id := range s.seen.ids {
			known[id] = true
		}
		for _, r := range s.pendingReadings() {
			known[r.Trace] = true
		}
		fresh := testReading(0)
		for fresh.Trace = 1; known[fresh.Trace]; fresh.Trace++ {
		}
		if dup, _, _, err := s.add(fresh); dup || err != nil {
			t.Fatalf("add after replay: dup=%v err=%v", dup, err)
		}
		if err := ackHead(s, 3); err != nil {
			t.Fatal(err)
		}
		want := s.pendingReadings()
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
		s2, err := openSpool(path, 8, 64, metrics.NewRegistry())
		if err != nil {
			t.Fatalf("the WAL this spool wrote does not replay: %v", err)
		}
		defer s2.close()
		if got := s2.pendingReadings(); !sameReadings(got, want) {
			t.Fatalf("reopen found %v, the spool held %v", traces(got), traces(want))
		}
	})
}

// reading24 is testReading with the bench's 24-byte payload, every byte
// derived from i.
func reading24(i int) Reading {
	r := testReading(i)
	r.Payload = make([]byte, 24)
	for k := range r.Payload {
		r.Payload[k] = byte(i*31 + k)
	}
	return r
}

// TestSpoolOwnsPayload holds the arena to its write-once contract: the
// spool copies a payload at admission, and a payload it hands out keeps
// its bytes however the arena moves on. Each case runs from offset 0 and
// from just below 2³², so the arena's 32-bit offsets wrap mid-case.
func TestSpoolOwnsPayload(t *testing.T) {
	for _, start := range []uint32{0, math.MaxUint32 - 40} {
		fresh := func(capacity int) *spool {
			s, err := openSpool("", capacity, 1<<20, metrics.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			s.start = start
			return s
		}
		t.Run(fmt.Sprintf("start=%d/caller reuses its buffer", start), func(t *testing.T) {
			s := fresh(8)
			buf := make([]byte, 24)
			for i := 0; i < 4; i++ {
				r := reading24(i)
				copy(buf, r.Payload)
				r.Payload = buf
				s.add(r)
				for k := range buf {
					buf[k] = 0xEE
				}
			}
			batch, _ := s.take(4)
			for i, r := range batch {
				if !bytes.Equal(r.Payload, reading24(i).Payload) {
					t.Fatalf("reading %d: took %x, admitted %x", i, r.Payload, reading24(i).Payload)
				}
			}
		})
		t.Run(fmt.Sprintf("start=%d/evicted batch outlives the arena", start), func(t *testing.T) {
			s := fresh(64)
			next := 0
			for ; next < 64; next++ {
				s.add(reading24(next))
			}
			batch, seqs := s.take(16)
			want := appendUplinkRequest(nil, 1, batch)
			// 64 admissions evict the batch; 10 k more, acked as they go,
			// grow the arena, trim it and drop it when it empties.
			for end := next + 10_064; next < end; next++ {
				s.add(reading24(next))
				if next%100 == 0 {
					for s.len() > 0 {
						ackHead(s, 64)
					}
				}
			}
			if s.base <= seqs[len(seqs)-1] {
				t.Fatal("the batch was never evicted")
			}
			if got := appendUplinkRequest(nil, 1, batch); !bytes.Equal(got, want) {
				t.Fatalf("the batch encodes to\n%s\nafter the arena moved on, was\n%s", got, want)
			}
		})
		t.Run(fmt.Sprintf("start=%d/append to a payload reaches no neighbour", start), func(t *testing.T) {
			s := fresh(8)
			for i := 0; i < 4; i++ {
				s.add(reading24(i))
			}
			end := s.start + uint32(len(s.data))
			batch, _ := s.take(2)
			for i := range batch {
				batch[i].Payload = append(batch[i].Payload, 0xEE, 0xEE, 0xEE)
			}
			for i, r := range append(batch, s.pendingReadings()...) {
				id := int(r.Trace - testReading(0).Trace)
				if want := reading24(id); !bytes.Equal(r.Payload[:24], want.Payload) || !r.At.Equal(want.At) {
					t.Fatalf("reading %d (%d): %x at %v, admitted %x at %v", i, id, r.Payload, r.At, want.Payload, want.At)
				}
			}
			if got := s.start + uint32(len(s.data)); got != end {
				t.Fatalf("arena ends at %d, ended at %d before the appends", got, end)
			}
		})
	}
}

// TestSpoolRebuildsReadingTime holds the stamp to the reading it packed:
// for each kind of time a reading can carry, the rebuilt reading encodes
// to the same WAL record, byte for byte, its At is Equal to the original,
// and a reopen's replay encodes to those bytes again. (A zone of 3601 s is
// the one case where the replayed At is not Equal: the record's offset has
// no seconds, so it never was.) One arena holds instants on both sides of
// the epoch, at the edges of the stamp's 60-bit distance and past them; a
// drained queue takes its next reading's At as the new epoch; and a replay
// whose first put is the zero time counts every later stamp from year 1.
func TestSpoolRebuildsReadingTime(t *testing.T) {
	base := time.Date(2022, 7, 1, 12, 30, 5, 999_999_999, time.UTC)
	const edge = time.Duration(1 << 59) // the nearest distance the head cannot hold
	ats := []time.Time{
		base,
		base.Local(),
		base.In(time.FixedZone("IST", 5*3600+30*60)),
		base.In(time.FixedZone("", -8*3600)),
		base.In(time.FixedZone("", 3601)),
		{},
		time.Now(), // carries a monotonic reading
		base.AddDate(300, 0, 0),
		base.AddDate(-300, 0, 0).Local(),
		base.Add(edge - 1),
		base.Add(edge),
		base.Add(-edge),
		base.Add(-edge - 1).In(time.FixedZone("", 3600)),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		base.Add(-time.Nanosecond),
	}
	open := func(path string) *spool {
		s, err := openSpool(path, 64, 64, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// admit adds a reading at each of ats, numbered from first, the even
	// ones reliable, and returns their put records.
	admit := func(s *spool, first int, ats []time.Time) [][]byte {
		want := make([][]byte, len(ats))
		for i, at := range ats {
			r := testReading(first + i)
			r.At, r.Reliable = at, i%2 == 0
			want[i] = encodePut(nil, &r)
			if _, _, _, err := s.add(r); err != nil {
				t.Fatal(err)
			}
		}
		return want
	}
	// check holds rebuilt readings to the records they were admitted as
	// and to their instants, which a replayed offset keeps only to the
	// minute.
	check := func(what string, got []Reading, want [][]byte, ats []time.Time, replayed bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d readings, want %d", what, len(got), len(want))
		}
		for i, r := range got {
			if enc := encodePut(nil, &r); !bytes.Equal(enc, want[i]) {
				t.Errorf("%s %v: rebuilt reading encodes to\n%s want\n%s", what, ats[i], enc, want[i])
			}
			if _, off := ats[i].Zone(); (!replayed || off%60 == 0) && !r.At.Equal(ats[i]) {
				t.Errorf("%s %v: rebuilt At %v is not Equal", what, ats[i], r.At)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "times.wal")
	s := open(path)
	want := admit(s, 0, ats)
	batch, _ := s.take(len(ats))
	check("taken", batch, want, ats, false)
	s.close()
	s = open(path)
	check("replayed", s.pendingReadings(), want, ats, true)

	ackHead(s, len(ats))
	if s.len() != 0 {
		t.Fatalf("%d readings pending after acking all %d", s.len(), len(ats))
	}
	later := []time.Time{base.AddDate(500, 0, 0), base.AddDate(500, 0, 1), base, {}}
	want = admit(s, len(ats), later)
	if !s.epoch.Equal(later[0]) {
		t.Fatalf("epoch %v after the queue drained, want the next reading's %v", s.epoch, later[0])
	}
	check("refilled", s.pendingReadings(), want, later, false)
	s.close()

	path = filepath.Join(t.TempDir(), "zero-first.wal")
	s = open(path)
	zeroFirst := append([]time.Time{{}}, ats...)
	want = admit(s, 0, zeroFirst)
	s.close()
	s = open(path)
	defer s.close()
	if !s.epoch.IsZero() {
		t.Fatalf("replay's epoch is %v, want the first put's zero time", s.epoch)
	}
	check("replayed after the zero time", s.pendingReadings(), want, zeroFirst, true)
}

// FuzzSpoolStamp pushes a reading at any instant, in UTC, Local or any
// fixed zone (offsets with seconds too), reliable or not, behind one that
// sets any epoch, and demands both back as they went in: an Equal At that
// formats to the same RFC 3339 bytes, the same Reliable and payload, and a
// stamp no longer than maxStamp.
func FuzzSpoolStamp(f *testing.F) {
	base := time.Date(2022, 7, 1, 12, 30, 5, 999_999_999, time.UTC)
	for _, c := range []struct{ epoch, at time.Time }{
		{base, base.Add(700 * time.Millisecond)},
		{base, base.AddDate(300, 0, 0)},
		{base, base.AddDate(-300, 0, 0)},
		{base, time.Time{}},
		{time.Time{}, base},
		{base, base.Add(1<<59 - 1)},
		{base, base.Add(-1 << 59)},
		{base, base.Add(1 << 59)},
	} {
		for zone := byte(0); zone < 3; zone++ {
			f.Add(c.epoch.Unix(), uint32(c.epoch.Nanosecond()), c.at.Unix(), uint32(c.at.Nanosecond()), zone, int32(3601), zone == 1, []byte("payload"))
		}
	}
	f.Add(int64(math.MaxInt64), uint32(999_999_999), int64(math.MinInt64), uint32(0), byte(2), int32(math.MinInt32), true, []byte{})
	f.Fuzz(func(t *testing.T, epochSec int64, epochNsec uint32, atSec int64, atNsec uint32, zone byte, offset int32, reliable bool, payload []byte) {
		var loc *time.Location
		switch zone % 3 {
		case 0:
			loc = time.UTC
		case 1:
			loc = time.Local
		default:
			loc = time.FixedZone("fixed", int(offset))
		}
		rs := []Reading{
			{From: 2, To: 1, Trace: 1, Payload: []byte{0xEE}, At: time.Unix(epochSec, int64(epochNsec%1e9)).In(loc)},
			{From: 3, To: 1, Trace: 2, Payload: payload, Reliable: reliable, At: time.Unix(atSec, int64(atNsec%1e9)).In(loc)},
		}
		s, err := openSpool("", 2, 2, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if _, _, _, err := s.add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range rs {
			got := s.reading(i)
			switch {
			case !got.At.Equal(want.At):
				t.Fatalf("reading %d at %v (epoch %v) rebuilt at %v", i, want.At, s.epoch, got.At)
			case got.At.Format(time.RFC3339Nano) != want.At.Format(time.RFC3339Nano):
				t.Fatalf("reading %d at %s rebuilt as %s", i, want.At.Format(time.RFC3339Nano), got.At.Format(time.RFC3339Nano))
			case got.Reliable != want.Reliable || !bytes.Equal(got.Payload, want.Payload):
				t.Fatalf("reading %d: reliable %v payload %x, pushed %v %x", i, got.Reliable, got.Payload, want.Reliable, want.Payload)
			case len(s.entry(i))-len(want.Payload) > maxStamp:
				t.Fatalf("reading %d: a %d-byte stamp, more than %d", i, len(s.entry(i))-len(want.Payload), maxStamp)
			}
		}
	})
}

// TestSpoolBytesPerPending is the spool's heap fence: a pending 24-byte
// reading costs at most 60 bytes built by add (a 16-byte slot, its state
// byte, its stamp, its payload and append's slack) and 50 after a reopen's
// replay, which leaves no slack; 32-byte slots with no stamp took 62.9 and
// 57.1, holding Reading structs 109. These readings are a second apart, so
// most stamps are 8 bytes. A one-entry horizon keeps the dedup set out of
// the sum. It measures the live heap after a collection, so it must not run
// beside other tests.
func TestSpoolBytesPerPending(t *testing.T) {
	const n, maxAdded, maxReplayed = 100_000, 60, 50
	path := filepath.Join(t.TempDir(), "pending.wal")
	reg := metrics.NewRegistry()
	perReading := func(build func() *spool) float64 {
		before := liveHeap()
		s := build()
		held := liveHeap() - before
		runtime.KeepAlive(s)
		if s.len() != n {
			t.Fatalf("%d pending, want %d", s.len(), n)
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
		return float64(held) / n
	}
	added := perReading(func() *spool {
		s, err := openSpool(path, n, 1, reg)
		if err != nil {
			t.Fatal(err)
		}
		s.groupCommit = time.Hour // buffered appends; close flushes
		for i := 0; i < n; i++ {
			s.add(reading24(i))
		}
		return s
	})
	replayed := perReading(func() *spool {
		s, err := openSpool(path, n, 1, reg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	t.Logf("bytes per pending 24 B reading: %.1f built by add, %.1f replayed", added, replayed)
	if added > maxAdded || replayed > maxReplayed {
		t.Fatalf("a pending 24 B reading holds %.1f B built by add (bound %d) and %.1f B replayed (bound %d)", added, maxAdded, replayed, maxReplayed)
	}
}

// TestSpoolWorkPerReading pins the WAL's work per reading: 4,096 24-byte
// readings at one instant, admitted under group commit with a commit every
// 64 adds, then taken and acknowledged in batches of 64, each ack followed
// by a commit. A reading costs one put record (145 bytes) and one del (40),
// and 1/32 of a flush; a change to how the spool holds a reading in memory
// leaves every figure as it is.
func TestSpoolWorkPerReading(t *testing.T) {
	const n, group = 4096, 64
	const wantBytes, wantRecords, wantCommits = 185.0, 2.0, 1.0 / 32
	at := time.Date(2022, 7, 1, 12, 30, 5, 123_456_789, time.UTC)
	path := filepath.Join(t.TempDir(), "work.wal")
	reg := metrics.NewRegistry()
	s, err := openSpool(path, n, n, reg)
	if err != nil {
		t.Fatal(err)
	}
	s.groupCommit = time.Hour
	for i := 0; i < n; i++ {
		r := reading24(i)
		r.At = at
		if _, _, _, err := s.add(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%group == 0 {
			if err := s.commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s.len() > 0 {
		batch, seqs := s.take(group)
		if err := s.ackAt(batch, seqs, at); err != nil {
			t.Fatal(err)
		}
		if err := s.commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bytesPer := float64(len(wal)) / n
	recordsPer := float64(bytes.Count(wal, []byte{'\n'})) / n
	commitsPer := float64(reg.Counter("ingest.wal.commits").Value()) / n
	t.Logf("per reading: %.4g WAL bytes, %.4g records, %.4g commits", bytesPer, recordsPer, commitsPer)
	if bytesPer != wantBytes || recordsPer != wantRecords || commitsPer != wantCommits {
		t.Fatalf("per reading: %v WAL bytes, %v records, %v commits; pinned %v, %v, %v",
			bytesPer, recordsPer, commitsPer, wantBytes, wantRecords, wantCommits)
	}
}
