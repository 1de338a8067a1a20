package gateway

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/metrics"
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
	if got := s.peek(2); len(got) != 2 || got[0].Trace != testReading(0).Trace {
		t.Fatalf("peek returned %v", got)
	}
	if err := s.ackAt(s.peek(2), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if s.len() != 1 || s.peek(1)[0].Trace != testReading(2).Trace {
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
	if err := s.ackAt([]Reading{r}, time.Time{}); err != nil {
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
	if s.len() != 2 || s.peek(1)[0].Trace != testReading(1).Trace {
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
	if err := s.ackAt(s.peek(2), time.Time{}); err != nil {
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
	got := s2.peek(3)
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
	if got := s3.peek(3)[2].Trace; got != testReading(2).Trace {
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
	if s.len() != 1 || s.peek(1)[0].Trace != testReading(0).Trace {
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
		if err := s.ackAt(s.peek(1), time.Time{}); err != nil {
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
	if s2.len() != 1 || s2.peek(1)[0].Trace != testReading(9000).Trace {
		t.Fatalf("post-compaction replay: len=%d", s2.len())
	}
}

func TestSpoolSeenHorizonBounded(t *testing.T) {
	s, _ := openSpool("", 4, 8, metrics.NewRegistry())
	for i := 0; i < 100; i++ {
		s.add(testReading(i))
		s.ackAt(s.peek(1), time.Time{})
	}
	if len(s.seen) > 8 || len(s.seenOrder) > 8 {
		t.Fatalf("horizon grew to %d, cap 8", len(s.seen))
	}
	// An ID evicted from the horizon is admissible again.
	if dup, _, _ := s.add(testReading(0)); dup {
		t.Fatal("evicted-horizon re-add judged a duplicate, want admitted")
	}
}
