package gateway

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/trace"
)

// reading builds a test reading with explicit origin, trace, and time —
// the fleet tests need control over all three.
func reading(origin packet.Address, id uint64, at time.Time) Reading {
	return Reading{
		From:    origin,
		To:      0x0001,
		Trace:   trace.TraceID(id),
		Payload: []byte{byte(id), byte(id >> 8), byte(id >> 16)},
		At:      at,
	}
}

// drainPoll drives Poll until the gateway is empty (healthy backend) or
// the round budget runs out.
func drainPoll(t *testing.T, g *Gateway, now time.Time) {
	t.Helper()
	for i := 0; i < 50 && g.Pending() > 0; i++ {
		now = now.Add(time.Hour)
		g.Poll(now)
	}
	if g.Pending() != 0 {
		t.Fatalf("gateway did not drain: %d pending", g.Pending())
	}
}

// TestPipelinedUplinkOverlapsBatches proves the windowed uplink actually
// pipelines: with Pipeline=3 one poll round launches three batches whose
// POSTs overlap in wall-clock time, instead of stop-and-wait's one round
// trip per batch.
func TestPipelinedUplinkOverlapsBatches(t *testing.T) {
	b := NewBackend()
	var cur, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond) // hold the request open so windows overlap
		b.ServeHTTP(w, r)
		cur.Add(-1)
	}))
	defer srv.Close()

	g, err := New(Config{
		URLs:          []string{srv.URL},
		Addr:          0x0001,
		BatchSize:     2,
		Pipeline:      3,
		FlushInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	now := time.Unix(0, 0)
	for i := 0; i < 6; i++ {
		if !g.Offer(reading(0x0002, uint64(0x2000+i), now)) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	g.Poll(now)
	if b.Distinct() != 6 || b.Duplicates() != 0 {
		t.Fatalf("distinct=%d dupes=%d, want 6/0", b.Distinct(), b.Duplicates())
	}
	if b.Batches() != 3 {
		t.Fatalf("batches=%d, want 3 (batch size 2)", b.Batches())
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrent uplinks %d: window did not pipeline", p)
	}
	if g.Pending() != 0 {
		t.Fatalf("pending %d after drain", g.Pending())
	}
}

// TestShardedGatewayPartitionsByOrigin checks the consistent-hash ingest
// partition: every reading lands on exactly the shard its origin hashes
// to, nothing is double-accepted, and the per-shard dedup still holds.
func TestShardedGatewayPartitionsByOrigin(t *testing.T) {
	sb := NewShardedBackend(4)
	srv := httptest.NewServer(sb)
	defer srv.Close()

	g, err := New(Config{
		URLs:          sb.URLs(srv.URL),
		Addr:          0x0001,
		BatchSize:     8,
		Pipeline:      2,
		FlushInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	now := time.Unix(0, 0)
	const origins, perOrigin = 16, 4
	for o := 0; o < origins; o++ {
		for k := 0; k < perOrigin; k++ {
			r := reading(packet.Address(0x0100+o), uint64(0x3000+o*perOrigin+k), now)
			if !g.Offer(r) {
				t.Fatalf("offer origin %d #%d rejected", o, k)
			}
		}
	}
	drainPoll(t, g, now)

	if got := sb.Distinct(); got != origins*perOrigin {
		t.Fatalf("distinct=%d, want %d", got, origins*perOrigin)
	}
	if d := sb.DoubleAccepted(); d != 0 {
		t.Fatalf("%d readings accepted by more than one shard", d)
	}
	for o := 0; o < origins; o++ {
		origin := packet.Address(0x0100 + o)
		home := g.ring.shard(origin)
		for s := 0; s < len(sb.shards); s++ {
			got := sb.Shard(s).FromAddr(origin)
			want := 0
			if s == home {
				want = perOrigin
			}
			if got != want {
				t.Fatalf("origin %v: shard %d holds %d readings, want %d (home shard %d)",
					origin, s, got, want, home)
			}
		}
	}
}

// TestCrossGatewayHandoverExactlyOnce is the fleet dedup acceptance
// test: readings delivered via gateway A and re-delivered via gateway B
// after a handover — including a mid-stream crash of A with unflushed
// group-commit records, a restart on A's WAL, and B re-uploading A's
// whole window — are accepted exactly once by the sharded backend,
// across three seeds.
func TestCrossGatewayHandoverExactlyOnce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			sb := NewShardedBackend(2)
			srv := httptest.NewServer(sb)
			defer srv.Close()

			mk := func(name string, addr packet.Address) *Gateway {
				g, err := New(Config{
					URLs:          sb.URLs(srv.URL),
					Addr:          addr,
					SpoolPath:     filepath.Join(dir, name),
					SpoolCapacity: 4096,
					DedupHorizon:  1 << 16,
					BatchSize:     8,
					Pipeline:      2,
					GroupCommit:   time.Millisecond,
					FlushInterval: time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			ga := mk("a.wal", 0x00A0)
			gb := mk("b.wal", 0x00B0)
			defer gb.Close()

			// The workload: 200 readings from 20 origins, in a
			// seed-shuffled order.
			const total, origins = 200, 20
			now := time.Unix(1000, 0)
			var all []Reading
			for i := 0; i < total; i++ {
				id := uint64(seed)<<32 | uint64(0x4000+i)
				all = append(all, reading(packet.Address(0x0200+i%origins), id, now))
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

			// Phase 1: the first 100 arrive via A; most are uploaded.
			for _, r := range all[:100] {
				ga.Offer(r)
			}
			now = now.Add(time.Hour)
			ga.Poll(now)
			// 20 more arrive moments before the crash: their WAL records
			// sit in the group-commit buffer, never flushed.
			for _, r := range all[100:120] {
				ga.Offer(r)
			}
			ga.crash()

			// Phase 2: handover. The mesh re-delivers A's entire window
			// through B (B cannot know what A already uploaded), plus the
			// remaining fresh traffic.
			for _, r := range all[:120] {
				gb.Offer(r)
			}
			for _, r := range all[120:] {
				gb.Offer(r)
			}
			drainPoll(t, gb, now)

			// Phase 3: A restarts on its WAL and re-uploads whatever had
			// been durable.
			ga2 := mk("a.wal", 0x00A0)
			defer ga2.Close()
			drainPoll(t, ga2, now)

			// Exactly-once: every reading accepted, none twice.
			if d := sb.DoubleAccepted(); d != 0 {
				t.Fatalf("%d readings double-accepted across shards", d)
			}
			got := make(map[trace.TraceID]bool)
			for s := 0; s < len(sb.shards); s++ {
				for _, r := range sb.Shard(s).Readings() {
					got[r.Trace] = true
				}
			}
			if len(got) != total {
				t.Fatalf("accepted %d unique readings, want %d", len(got), total)
			}
			for _, r := range all {
				if !got[r.Trace] {
					t.Fatalf("reading %v lost", r.Trace)
				}
			}
			// Redundant uploads are expected (handover re-delivery, WAL
			// replay) — they must all have been suppressed shard-side.
			if sb.Distinct() != total {
				t.Fatalf("distinct=%d, want %d", sb.Distinct(), total)
			}
		})
	}
}

// TestGroupCommitBatchesWALFlushes checks the group-commit clock: WAL
// appends sit in the writer buffer until the interval expires, Poll
// schedules itself for the commit deadline, and one flush covers the
// whole group.
func TestGroupCommitBatchesWALFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	g, err := New(Config{
		URLs:          []string{srv.URL},
		Addr:          0x0001,
		SpoolPath:     path,
		GroupCommit:   100 * time.Millisecond,
		BatchSize:     100, // never size-triggered in this test
		FlushInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	now := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		g.Offer(reading(0x0002, uint64(0x5000+i), now))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL flushed before the group-commit interval (size %d, err %v)", fi.Size(), err)
	}
	// Poll must wake again no later than the commit deadline.
	if d := g.Poll(now); d > 100*time.Millisecond {
		t.Fatalf("poll wait %v ignores the 100ms commit deadline", d)
	}
	g.Poll(now.Add(100 * time.Millisecond))
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("WAL not flushed at the commit deadline (err %v)", err)
	}
	if got := g.Metrics().Counter("ingest.wal.commits").Value(); got != 1 {
		t.Fatalf("ingest.wal.commits=%d, want 1 (one flush for the whole group)", got)
	}

	// Durable restart: the committed group survives even a crash (no
	// close-time flush) because the deadline already flushed it.
	g.crash()
	sp, err := openSpool(path, 1024, 8192, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	if sp.replayed != 5 {
		t.Fatalf("replayed %d, want the 5 committed readings", sp.replayed)
	}
}

// TestGroupCommitCrashLosesOnlyBufferedWindow documents the group-commit
// durability trade: a crash before the commit deadline loses exactly the
// buffered records (recovered fleet-wide via handover), never flushed
// ones.
func TestGroupCommitCrashLosesOnlyBufferedWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	mk := func() *Gateway {
		g, err := New(Config{
			URLs:          []string{srv.URL},
			Addr:          0x0001,
			SpoolPath:     path,
			GroupCommit:   100 * time.Millisecond,
			BatchSize:     100,
			FlushInterval: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mk()
	now := time.Unix(0, 0)
	// Three readings commit (deadline passes)…
	for i := 0; i < 3; i++ {
		g.Offer(reading(0x0002, uint64(0x6000+i), now))
	}
	g.Poll(now.Add(100 * time.Millisecond))
	// …two more are only buffered when the process dies.
	for i := 3; i < 5; i++ {
		g.Offer(reading(0x0002, uint64(0x6000+i), now))
	}
	g.crash()

	g2 := mk()
	defer g2.Close()
	if got := g2.Pending(); got != 3 {
		t.Fatalf("replayed %d readings, want exactly the 3 committed ones", got)
	}
}

// TestDownlinkIdempotentAcrossReorderedAcks is the regression test for
// pipelined acks: batch responses applied out of order must not regress
// controller state. An older command version is skipped; retries of the
// current version, other op streams, and other destinations pass.
func TestDownlinkIdempotentAcrossReorderedAcks(t *testing.T) {
	b := NewBackend()
	g, _ := newTestGateway(t, b, nil)
	var sent []control.Command
	g.SetSender(func(d Downlink) error {
		if c, ok := control.ParseCommand(d.Payload); ok {
			sent = append(sent, c)
		}
		return nil
	})

	cmd := func(to packet.Address, op control.Op, seq uint32) []Downlink {
		return []Downlink{{To: to, Command: &control.Command{Op: op, Seq: seq, HelloPeriod: time.Minute}}}
	}

	// Two batch acks arrive reversed: seq 2 first, then the stale seq 1.
	g.injectDownlinks(cmd(0x0007, control.OpSetConfig, 2))
	g.injectDownlinks(cmd(0x0007, control.OpSetConfig, 1))
	if len(sent) != 1 || sent[0].Seq != 2 {
		t.Fatalf("stale downlink not suppressed: sent=%v", sent)
	}
	if got := g.Metrics().Counter("gw.downlink.stale").Value(); got != 1 {
		t.Fatalf("gw.downlink.stale=%d, want 1", got)
	}

	// A retry of the CURRENT version must pass — the controller keeps
	// Seq stable across retries and depends on re-injection.
	g.injectDownlinks(cmd(0x0007, control.OpSetConfig, 2))
	if len(sent) != 2 || sent[1].Seq != 2 {
		t.Fatalf("same-seq retry suppressed: sent=%v", sent)
	}

	// Other op streams and destinations keep their own version counters.
	g.injectDownlinks(cmd(0x0007, control.OpTriggerHello, 1))
	g.injectDownlinks(cmd(0x0008, control.OpSetConfig, 1))
	if len(sent) != 4 {
		t.Fatalf("independent streams were cross-suppressed: sent=%v", sent)
	}
}

// TestEvictedInFlightReadingFreesItsWindowSlot: a reading evicted while it
// rides an in-flight batch no longer counts against what is available to
// launch, so the full batches behind it go out at once instead of waiting
// a FlushInterval — and every reading gets exactly one del: the evictees
// their eviction's, and the ack of the batch that carried them logs none,
// which a replay would take for the del of a later copy of the trace.
func TestEvictedInFlightReadingFreesItsWindowSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evict.wal")
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()
	g, err := New(Config{
		URLs:          []string{srv.URL},
		Addr:          0x0001,
		SpoolPath:     path,
		SpoolCapacity: 4,
		BatchSize:     2,
		Pipeline:      3,
		FlushInterval: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	offer := func(i int) { g.Offer(reading(0x0002, uint64(0x7000+i), now)) }

	offer(0)
	offer(1)
	first, _ := g.collect(g.shards[0], now)
	if len(first) != 1 || len(first[0].batch) != 2 {
		t.Fatalf("first collect launched %d batches, want one of 2", len(first))
	}
	for i := 2; i < 6; i++ {
		offer(i) // 4 and 5 find the spool full and evict 0 and 1, both in flight
	}
	if got := g.Metrics().Counter("gw.drop.oldest").Value(); got != 2 {
		t.Fatalf("evicted %d readings, want 2", got)
	}
	next, wait := g.collect(g.shards[0], now)
	if len(next) != 2 {
		t.Fatalf("collect launched %d batches and would wake in %v; want both full batches at once", len(next), wait)
	}
	launches := append(first, next...)
	g.execute(launches)
	for _, l := range launches {
		g.apply(l, now)
	}
	if g.Pending() != 0 || b.Distinct() != 6 || b.Duplicates() != 0 {
		t.Fatalf("pending=%d distinct=%d dupes=%d, want 0/6/0", g.Pending(), b.Distinct(), b.Duplicates())
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	puts, dels := map[trace.TraceID]int{}, map[trace.TraceID]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte{'\n'}) {
		r, put, ok := parseRecord(line)
		if !ok {
			t.Fatalf("WAL line %q does not parse", line)
		}
		if put {
			puts[r.Trace]++
		} else {
			dels[r.Trace]++
		}
	}
	for i := 0; i < 6; i++ {
		id := trace.TraceID(0x7000 + i)
		if puts[id] != 1 || dels[id] != 1 {
			t.Errorf("reading %d: %d put and %d del records, want 1 and 1", i, puts[id], dels[id])
		}
	}
}

// lanePair builds an unstarted gateway with two lanes, lane i posting to
// a server of its own in front of backs[i]; hold[i], when set, runs in
// each of lane i's requests before its backend sees the batch, and mut,
// when set, adjusts the Config first. It also returns one origin the ring
// routes to each lane.
func lanePair(t *testing.T, hold [2]func(), mut func(*Config)) (*Gateway, [2]*Backend, [2]packet.Address) {
	t.Helper()
	var backs [2]*Backend
	urls := make([]string, 2)
	for i := range backs {
		b, h := NewBackend(), hold[i]
		backs[i] = b
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h != nil {
				h()
			}
			b.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	cfg := Config{URLs: urls, Addr: 0x0001, BatchSize: 4, Pipeline: 1, FlushInterval: time.Hour}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	var origins [2]packet.Address
	for a, found := packet.Address(0x0100), 0; found < 2; a++ {
		if lane := g.ring.shard(a); origins[lane] == 0 {
			origins[lane] = a
			found++
		}
	}
	return g, backs, origins
}

// TestSlowLaneDoesNotStallSiblings holds Start's lanes to their own
// clocks: while lane 0's POST hangs, lane 1 drains its whole backlog.
func TestSlowLaneDoesNotStallSiblings(t *testing.T) {
	release := make(chan struct{})
	g, backs, origins := lanePair(t, [2]func(){func() { <-release }, nil}, nil)
	defer close(release) // before the cleanups close the gateway
	const perLane = 40
	for k := 0; k < perLane; k++ {
		for lane, origin := range origins {
			g.Offer(reading(origin, uint64(0x8000+lane*perLane+k), time.Now()))
		}
	}
	g.Start()
	deadline := time.Now().Add(2 * time.Second)
	for backs[1].Distinct() < perLane && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := backs[1].Distinct(); got != perLane {
		t.Fatalf("lane 1 holds %d of %d readings after 2 s while lane 0's POST hangs", got, perLane)
	}
	if got := backs[0].Distinct(); got != 0 {
		t.Fatalf("lane 0's backend holds %d readings; its POST should still hang", got)
	}
}

// TestFullBatchWakesItsLane offers a full batch to each lane of a started
// gateway whose FlushInterval is an hour: each lane must uplink it at
// once, woken by its own kick. Close must then join every lane loop, so
// no POST reaches a backend after it returns; each subtest holds a
// different lane's POST open across Close.
func TestFullBatchWakesItsLane(t *testing.T) {
	const rounds = 2
	for slow := 0; slow < 2; slow++ {
		t.Run(fmt.Sprintf("slow=%d", slow), func(t *testing.T) {
			var entered [2]chan struct{}
			var hold [2]func()
			for i := range entered {
				ch := make(chan struct{}, rounds) // one POST per round
				entered[i] = ch
				hold[i] = func() {
					ch <- struct{}{}
					if i == slow {
						time.Sleep(100 * time.Millisecond) // still in flight when Close runs
					}
				}
			}
			g, backs, origins := lanePair(t, hold, nil)
			g.Start()
			id := uint64(0x9000)
			for round := 1; round <= rounds; round++ {
				// Both loops have applied the last round and parked on their
				// hour-long timers, so only a kick can wake them.
				for lane, b := range backs {
					for deadline := time.Now().Add(2 * time.Second); b.Distinct() < 4*(round-1); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("round %d: lane %d's last batch was not acknowledged within 2 s", round, lane)
						}
					}
				}
				time.Sleep(20 * time.Millisecond)
				for _, origin := range origins {
					for k := 0; k < 4; k++ {
						id++
						g.Offer(reading(origin, id, time.Now()))
					}
				}
				for lane := range entered {
					select {
					case <-entered[lane]:
					case <-time.After(2 * time.Second):
						t.Fatalf("round %d: lane %d did not uplink its full batch within 2 s", round, lane)
					}
				}
			}
			// The slow lane's last POST is in flight.
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			settled := [2]int{backs[0].Batches(), backs[1].Batches()}
			time.Sleep(200 * time.Millisecond)
			for lane, b := range backs {
				if got := b.Batches(); got != settled[lane] {
					t.Errorf("lane %d: %d POSTs accepted when Close returned, %d after", lane, settled[lane], got)
				}
				if got := b.Distinct(); got != 4*rounds {
					t.Errorf("lane %d's backend holds %d readings, want %d", lane, got, 4*rounds)
				}
			}
		})
	}
}

// TestCloseDrainsWhatTheBackendTakes holds Close to its rule: drain every
// lane's queue, partial batches included, but retry nothing — a failed POST
// ends its lane's drain and leaves the rest in the WAL, and a lane behind
// an open breaker is not posted to at all.
func TestCloseDrainsWhatTheBackendTakes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perLane int  // readings offered to each lane
		failing bool // the backends fail every POST from the start
		// breaker opens each lane's breaker with one failed Poll of a
		// full batch, then heals the backends before Close.
		breaker      bool
		wantPosts    int // POSTs each lane makes inside Close
		wantUplinked int // readings each backend holds after Close
	}{
		{name: "partial batch", perLane: 3, wantPosts: 1, wantUplinked: 3},
		{name: "failing backend", perLane: 6, failing: true, wantPosts: 1},
		{name: "open breaker", perLane: 4, failing: true, breaker: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var posts [2]atomic.Int32
			spool := filepath.Join(t.TempDir(), "close.wal")
			var cfg Config
			g, backs, origins := lanePair(t, [2]func(){
				func() { posts[0].Add(1) },
				func() { posts[1].Add(1) },
			}, func(c *Config) {
				c.SpoolPath = spool
				if tc.breaker {
					// One failure opens the breaker, and its backoff is
					// over before Close, so only the breaker holds the lane.
					c.BreakerThreshold = 1
					c.RetryBase = time.Nanosecond
				}
				cfg = *c
			})
			for lane, origin := range origins {
				backs[lane].SetFailing(tc.failing)
				for k := 0; k < tc.perLane; k++ {
					g.Offer(reading(origin, uint64(0xa000+lane*tc.perLane+k), time.Now()))
				}
			}
			if tc.breaker {
				g.Poll(time.Now())
				if !g.BreakerOpen() {
					t.Fatal("a failed Poll did not open the breaker")
				}
				for _, b := range backs {
					b.SetFailing(false)
				}
			}
			before := [2]int32{posts[0].Load(), posts[1].Load()}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			for lane, b := range backs {
				if got := posts[lane].Load() - before[lane]; got != int32(tc.wantPosts) {
					t.Errorf("lane %d made %d POSTs inside Close, want %d", lane, got, tc.wantPosts)
				}
				if got := b.Distinct(); got != tc.wantUplinked {
					t.Errorf("lane %d's backend holds %d readings, want %d", lane, got, tc.wantUplinked)
				}
			}

			g2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g2.Close()
			if got, want := g2.Pending(), 2*(tc.perLane-tc.wantUplinked); got != want {
				t.Fatalf("a successor on the same spool replays %d readings, want %d", got, want)
			}
		})
	}
}
