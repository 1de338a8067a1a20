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
		if dup, _, err := s.add(testReading(i)); dup || err != nil {
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
	if dup, _, _ := s.add(r); dup {
		t.Fatal("first add judged a duplicate")
	}
	if dup, _, _ := s.add(r); !dup {
		t.Fatal("second add admitted, want duplicate")
	}
	// Still a duplicate after upload: the horizon outlives the queue.
	if err := ackHead(s, 1); err != nil {
		t.Fatal(err)
	}
	if dup, _, _ := s.add(r); !dup {
		t.Fatal("post-ack add admitted, want duplicate")
	}
}

func TestSpoolDropPolicies(t *testing.T) {
	// A full spool evicts the head and admits the newcomer.
	s, _ := openSpool("", 2, 16, metrics.NewRegistry())
	s.add(testReading(0))
	s.add(testReading(1))
	dup, evicted, _ := s.add(testReading(2))
	if dup || evicted == nil || evicted.Trace != testReading(0).Trace {
		t.Fatalf("full spool: dup=%v evicted=%v", dup, evicted)
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
		if dup, _, err := s.add(testReading(i)); dup || err != nil {
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
	if dup, _, _ := s2.add(testReading(0)); !dup {
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
	if dup, _, err := s2.add(testReading(2)); dup || err != nil {
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
	dup, _, err := s.add(testReading(0))
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
		if dup, _, err := s.add(testReading(i)); dup || err != nil {
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
	if len(s.seen) > 8 || len(s.seenOrder) > 8 {
		t.Fatalf("horizon grew to %d, cap 8", len(s.seen))
	}
	// An ID evicted from the horizon is admissible again.
	if dup, _, _ := s.add(testReading(0)); dup {
		t.Fatal("evicted-horizon re-add judged a duplicate, want admitted")
	}
}

// spoolModel is the queue the sequence-addressed spool replaced, kept as
// the reference: one slice, in-flight readings in a set of trace IDs, and
// an ack that filters everything pending.
type spoolModel struct {
	capacity int
	pending  []Reading
	seen     map[trace.TraceID]bool
}

func (m *spoolModel) add(r Reading) (dup bool, evicted *Reading) {
	if m.seen[r.Trace] {
		return true, nil
	}
	if len(m.pending) >= m.capacity {
		evicted, m.pending = &m.pending[0], m.pending[1:]
	}
	m.seen[r.Trace] = true
	m.pending = append(m.pending, r)
	return false, evicted
}

func (m *spoolModel) peekExcluding(n int, excl map[trace.TraceID]bool) []Reading {
	var out []Reading
	for _, p := range m.pending {
		if len(out) < n && !excl[p.Trace] {
			out = append(out, p)
		}
	}
	return out
}

func (m *spoolModel) ackAt(rs []Reading) {
	ids := make(map[trace.TraceID]bool, len(rs))
	for _, r := range rs {
		ids[r.Trace] = true
	}
	var kept []Reading
	for _, p := range m.pending {
		if !ids[p.Trace] {
			kept = append(kept, p)
		}
	}
	m.pending = kept
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

// TestSpoolMatchesScanModel drives the spool and the scan-based model with
// the same seeded random interleaving of everything a shard does to its
// queue — admit, duplicate admit, evict at capacity, up to three batches
// out at once, acks in and out of order, failed batches that retry, acks
// of readings evicted in flight, compactions with traffic between begin
// and finish, crash and reopen — and demands identical depth, contents,
// order and evictees after every step, and that the WAL replays to the
// model's queue.
func TestSpoolMatchesScanModel(t *testing.T) {
	const steps, horizon = 2000, 1 << 20 // the horizon never forgets: dedup is not under test
	type flight struct {
		batch []Reading
		seqs  []uint64
	}
	compactions, reopens, lateAcks := 0, 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "model.wal")
		capacity := 4 + rng.Intn(60)
		reg := metrics.NewRegistry()
		s, err := openSpool(path, capacity, horizon, reg)
		if err != nil {
			t.Fatal(err)
		}
		m := &spoolModel{capacity: capacity, seen: map[trace.TraceID]bool{}}
		var out []flight
		busy := map[trace.TraceID]bool{}
		var compacting *compactState
		next := 0

		check := func(step int, what string) {
			t.Helper()
			queued := 0
			for _, p := range m.pending {
				if !busy[p.Trace] {
					queued++
				}
			}
			if s.len() != len(m.pending) || s.queued() != queued || !sameReadings(s.pendingReadings(), m.pending) {
				t.Fatalf("seed %d step %d (%s): spool len=%d queued=%d %v, model len=%d queued=%d %v",
					seed, step, what, s.len(), s.queued(), traces(s.pendingReadings()), len(m.pending), queued, traces(m.pending))
			}
		}
		reopen := func(step int, crash bool) {
			if compacting != nil {
				if err := s.finishCompact(compacting); err != nil {
					t.Fatal(err)
				}
				compacting = nil
			}
			if crash {
				s.crash()
			} else if err := s.close(); err != nil {
				t.Fatal(err)
			}
			if s, err = openSpool(path, capacity, horizon, reg); err != nil {
				t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
			}
			// The batches that were out died with the process, and the
			// horizon is now what the log still names.
			out, busy = nil, map[trace.TraceID]bool{}
			m.seen = map[trace.TraceID]bool{}
			for id := range s.seen {
				m.seen[id] = true
			}
			reopens++
		}

		for step := 0; step < steps; step++ {
			what := ""
			switch p := rng.Intn(100); {
			case p < 45:
				what = "admit"
				r := testReading(next)
				next++
				mdup, mev := m.add(r)
				dup, ev, err := s.add(r)
				if err != nil {
					t.Fatal(err)
				}
				if dup != mdup || (ev == nil) != (mev == nil) || (ev != nil && ev.Trace != mev.Trace) {
					t.Fatalf("seed %d step %d: add: spool dup=%v evicted=%v, model dup=%v evicted=%v", seed, step, dup, ev, mdup, mev)
				}
			case p < 50 && next > 0:
				what = "duplicate admit"
				r := testReading(rng.Intn(next))
				mdup, _ := m.add(r)
				dup, _, _ := s.add(r)
				if dup != mdup {
					t.Fatalf("seed %d step %d: duplicate admit: spool dup=%v, model dup=%v", seed, step, dup, mdup)
				}
			case p < 70 && len(out) < 3:
				what = "take"
				n := 1 + rng.Intn(8)
				want := m.peekExcluding(n, busy)
				batch, seqs := s.take(n)
				if !sameReadings(batch, want) {
					t.Fatalf("seed %d step %d: take(%d) = %v, model %v", seed, step, n, traces(batch), traces(want))
				}
				if len(batch) > 0 {
					for _, r := range batch {
						busy[r.Trace] = true
					}
					out = append(out, flight{batch, seqs})
				}
			case p < 92 && len(out) > 0:
				// The oldest batch out (in order) or any of them (out of
				// order); one time in four it failed and goes back.
				i := 0
				if rng.Intn(2) == 0 {
					i = rng.Intn(len(out))
				}
				f := out[i]
				out = append(out[:i], out[i+1:]...)
				for _, r := range f.batch {
					delete(busy, r.Trace)
				}
				if rng.Intn(4) == 0 {
					what = "fail"
					s.release(f.seqs)
					break
				}
				what = "ack"
				if f.seqs[0] < s.base {
					lateAcks++
				}
				m.ackAt(f.batch)
				if err := s.ackAt(f.batch, f.seqs, time.Time{}); err != nil {
					t.Fatal(err)
				}
			case p < 97:
				what = "compact"
				if compacting != nil {
					if err := s.finishCompact(compacting); err != nil {
						t.Fatal(err)
					}
					compacting = nil
					compactions++
				} else if snap, due := s.beginCompact(); due {
					compacting = s.writeCompactTmp(snap) // finishes some steps later
				}
			case p < 99:
				what = "reopen"
				reopen(step, rng.Intn(2) == 0)
			}
			check(step, what)
		}
		reopen(steps, false)
		check(steps, "final replay")
		s.close()
	}
	t.Logf("compactions=%d reopens=%d acks after eviction=%d", compactions, reopens, lateAcks)
	if compactions == 0 || reopens == 0 || lateAcks == 0 {
		t.Fatalf("the walk never reached: compactions=%d reopens=%d acks after eviction=%d", compactions, reopens, lateAcks)
	}
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
		for id := range s.seen {
			known[id] = true
		}
		for _, r := range s.pendingReadings() {
			known[r.Trace] = true
		}
		fresh := testReading(0)
		for fresh.Trace = 1; known[fresh.Trace]; fresh.Trace++ {
		}
		if dup, _, err := s.add(fresh); dup || err != nil {
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
