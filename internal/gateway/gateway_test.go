package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/trace"
)

// newTestGateway builds a gateway against an embedded backend with
// deterministic timing; mut can adjust the Config before construction.
func newTestGateway(t *testing.T, b *Backend, mut func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(b)
	t.Cleanup(srv.Close)
	cfg := Config{
		URLs:             []string{srv.URL},
		Addr:             0x0001,
		BatchSize:        4,
		FlushInterval:    10 * time.Second,
		RetryBase:        time.Second,
		RetryMax:         8 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, srv
}

func TestNewValidatesBackendURLs(t *testing.T) {
	const good = "http://127.0.0.1:9/uplink"
	for _, tc := range []struct {
		name string
		urls []string
		bad  int // index the error must name; -1 means New succeeds
	}{
		{"one", []string{good}, -1},
		{"https shards", []string{"https://a.example/s/0", "https://a.example/s/1"}, -1},
		{"empty entry", []string{"", good}, 0},
		{"unparseable", []string{good, "http://[::1"}, 1},
		{"wrong scheme", []string{"ftp://127.0.0.1/uplink"}, 0},
		{"no scheme", []string{good, good, "127.0.0.1:9/uplink"}, 2},
		{"no host", []string{"http:///uplink"}, 0},
	} {
		g, err := New(Config{URLs: tc.urls})
		switch {
		case err == nil:
			g.Close()
			if tc.bad >= 0 {
				t.Errorf("%s: New(URLs: %q) accepted a bad backend list", tc.name, tc.urls)
			}
		case tc.bad < 0:
			t.Errorf("%s: New(URLs: %q) = %v", tc.name, tc.urls, err)
		case !strings.Contains(err.Error(), fmt.Sprintf("URLs[%d]", tc.bad)):
			t.Errorf("%s: error %q does not name URLs[%d]", tc.name, err, tc.bad)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New without any backend URL: want error")
	}
}

func TestGatewayBatchSizeTrigger(t *testing.T) {
	b := NewBackend()
	g, _ := newTestGateway(t, b, nil)
	now := time.Unix(0, 0)

	// Three readings: under the batch size, nothing uplinks before the
	// flush interval.
	for i := 0; i < 3; i++ {
		if !g.Offer(testReading(i)) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	g.Poll(now)
	if b.Distinct() != 0 {
		t.Fatal("partial batch flushed before the interval")
	}
	// The fourth reading completes a batch: the next poll drains it
	// immediately, no interval wait.
	g.Offer(testReading(3))
	g.Poll(now.Add(time.Second))
	if b.Distinct() != 4 || b.Batches() != 1 {
		t.Fatalf("full batch: distinct=%d batches=%d", b.Distinct(), b.Batches())
	}
}

func TestGatewayTimeTrigger(t *testing.T) {
	b := NewBackend()
	g, _ := newTestGateway(t, b, nil)
	now := time.Unix(0, 0)

	g.Poll(now) // anchor lastFlush
	g.Offer(testReading(0))
	if d := g.Poll(now.Add(time.Second)); d <= 0 || d > 10*time.Second {
		t.Fatalf("poll wait %v, want remaining interval", d)
	}
	if b.Distinct() != 0 {
		t.Fatal("flushed early")
	}
	g.Poll(now.Add(11 * time.Second))
	if b.Distinct() != 1 {
		t.Fatalf("time-triggered flush missing: distinct=%d", b.Distinct())
	}
	if g.Pending() != 0 {
		t.Fatalf("pending %d after flush", g.Pending())
	}
}

func TestGatewayBackoffAndCircuitBreaker(t *testing.T) {
	b := NewBackend()
	b.SetFailing(true)
	g, _ := newTestGateway(t, b, nil)
	reg := g.Metrics()
	now := time.Unix(0, 0)

	for i := 0; i < 4; i++ {
		g.Offer(testReading(i))
	}

	// Failure 1: backoff = backoffScale x RetryBase.
	if d := g.Poll(now); d != 750*time.Millisecond {
		t.Fatalf("backoff after failure 1 = %v, want 750ms", d)
	}
	// Poll again inside the backoff window: no extra attempt.
	g.Poll(now.Add(500 * time.Millisecond))
	if got := reg.Counter("gw.uplink.failures").Value(); got != 1 {
		t.Fatalf("failures=%d, want 1 (backoff not respected)", got)
	}
	// Failure 2 doubles the backoff.
	now = now.Add(time.Second)
	if d := g.Poll(now); d != 1500*time.Millisecond {
		t.Fatalf("backoff after failure 2 = %v, want 1.5s", d)
	}
	// Failure 3 crosses the threshold: breaker opens for the cooldown.
	now = now.Add(2 * time.Second)
	if d := g.Poll(now); d != time.Minute {
		t.Fatalf("after failure 3 want breaker cooldown 1m, got %v", d)
	}
	if !g.BreakerOpen() {
		t.Fatal("breaker not open after threshold failures")
	}
	if reg.Counter("gw.breaker.opened").Value() != 1 || reg.Gauge("gw.breaker.open").Value() != 1 {
		t.Fatal("breaker metrics not recorded")
	}
	// While open, attempts are suppressed entirely.
	g.Poll(now.Add(30 * time.Second))
	if got := reg.Counter("gw.uplink.failures").Value(); got != 3 {
		t.Fatalf("failures=%d while breaker open, want 3", got)
	}

	// Backend recovers; the half-open probe closes the breaker and the
	// spool drains with zero loss and no duplicates.
	b.SetFailing(false)
	now = now.Add(time.Minute)
	g.Poll(now)
	if g.BreakerOpen() {
		t.Fatal("breaker still open after successful probe")
	}
	if reg.Gauge("gw.breaker.open").Value() != 0 {
		t.Fatal("breaker gauge still 1 after close")
	}
	if b.Distinct() != 4 || b.Duplicates() != 0 || g.Pending() != 0 {
		t.Fatalf("post-recovery: distinct=%d dupes=%d pending=%d",
			b.Distinct(), b.Duplicates(), g.Pending())
	}
}

func TestGatewayReopensBreakerOnFailedProbe(t *testing.T) {
	b := NewBackend()
	b.SetFailing(true)
	g, _ := newTestGateway(t, b, nil)
	now := time.Unix(0, 0)
	// A full batch so the very first poll attempts an uplink.
	for i := 0; i < 4; i++ {
		g.Offer(testReading(i))
	}

	for i := 0; i < 3; i++ {
		d := g.Poll(now)
		now = now.Add(d)
	}
	if !g.BreakerOpen() {
		t.Fatal("breaker should be open")
	}
	// Probe fails: the breaker re-arms for another cooldown.
	g.Poll(now)
	if !g.BreakerOpen() {
		t.Fatal("breaker closed on a failed probe")
	}
	if got := g.Metrics().Counter("gw.uplink.failures").Value(); got != 4 {
		t.Fatalf("failures=%d, want 4 (exactly one probe)", got)
	}
}

func TestGatewayDedupAcrossOffers(t *testing.T) {
	b := NewBackend()
	g, _ := newTestGateway(t, b, nil)
	r := testReading(0)
	if !g.Offer(r) {
		t.Fatal("first offer rejected")
	}
	if g.Offer(r) {
		t.Fatal("duplicate offer accepted")
	}
	if got := g.Metrics().Counter("gw.drop.duplicate").Value(); got != 1 {
		t.Fatalf("gw.drop.duplicate=%d, want 1", got)
	}
	g.Poll(time.Unix(100, 0))
	// Even after upload, a mesh re-delivery stays suppressed.
	if g.Offer(r) {
		t.Fatal("post-upload duplicate accepted")
	}
}

func TestGatewayDropOldestUnderOutage(t *testing.T) {
	b := NewBackend()
	b.SetFailing(true)
	g, _ := newTestGateway(t, b, func(c *Config) { c.SpoolCapacity = 3 })
	now := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		g.Offer(testReading(i))
		g.Poll(now)
	}
	if g.Pending() != 3 {
		t.Fatalf("pending=%d, want capacity 3", g.Pending())
	}
	if got := g.Metrics().Counter("gw.drop.oldest").Value(); got != 2 {
		t.Fatalf("gw.drop.oldest=%d, want 2", got)
	}
	// Recovery delivers exactly the surviving window: readings 2..4.
	b.SetFailing(false)
	g.Poll(now.Add(time.Hour))
	got := b.Readings()
	if len(got) != 3 || got[0].Trace != testReading(2).Trace {
		t.Fatalf("survivors wrong: %v", got)
	}
}

func TestGatewayDownlinkInjection(t *testing.T) {
	b := NewBackend()
	g, _ := newTestGateway(t, b, nil)
	var injected []Downlink
	g.SetSender(func(d Downlink) error {
		injected = append(injected, d)
		return nil
	})
	b.PushDownlink(Downlink{To: 0x0007, Payload: []byte("valve off"), Reliable: true})

	now := time.Unix(0, 0)
	g.Poll(now) // anchor lastFlush
	g.Offer(testReading(0))
	g.Poll(now.Add(time.Hour))
	if len(injected) != 1 || injected[0].To != packet.Address(0x0007) || !injected[0].Reliable {
		t.Fatalf("downlink not injected: %v", injected)
	}
	reg := g.Metrics()
	if reg.Counter("gw.downlink.received").Value() != 1 || reg.Counter("gw.downlink.injected").Value() != 1 {
		t.Fatal("downlink metrics missing")
	}
}

// FuzzUplinkResponse feeds arbitrary 2xx bodies through post's decode and
// on into the mesh. The decode returns an error or a response, never both
// nor neither, and every downlink the response carries is injected, counted
// as an injection error, or skipped as an older version of a command
// already injected — and nothing panics on the way.
func FuzzUplinkResponse(f *testing.F) {
	b := NewBackend()
	b.PushDownlink(Downlink{To: 0x0007, Command: &control.Command{Op: control.OpRekey, Seq: 3, KeyEpoch: 2, Key: meshsec.Key{1, 2, 3}}})
	b.PushDownlink(Downlink{To: 0x0009, Payload: []byte("valve off"), Reliable: true})
	rec := httptest.NewRecorder()
	b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(appendUplinkRequest(nil, 0x0001, []Reading{testReading(0)}))))
	if rec.Code != http.StatusOK {
		f.Fatalf("backend answered %d", rec.Code)
	}
	f.Add(rec.Body.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte(`{"accepted":1,"downlinks":[{"to":65535,"payload":"AQ=="},{"to":7,"command":{"Op":9,"Seq":1}}]}`))
	f.Add([]byte(`{"downlinks":[{"to":7,"command":{"Op":1,"Seq":5,"DutyCycle":1e300,"HelloPeriod":-1}},{"to":7,"command":{"Op":1,"Seq":4}}]}`))

	g, err := New(Config{URLs: []string{"http://127.0.0.1:9/uplink"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { g.Close() })
	g.SetSender(func(d Downlink) error {
		if d.To == packet.Broadcast {
			return fmt.Errorf("no route to %v", d.To)
		}
		return nil
	})
	reg := g.Metrics()
	counts := func() (received, settled uint64) {
		return reg.Counter("gw.downlink.received").Value(),
			reg.Counter("gw.downlink.injected").Value() + reg.Counter("gw.downlink.errors").Value() + reg.Counter("gw.downlink.stale").Value()
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ur, err := decodeUplinkResponse(data)
		if (ur == nil) == (err == nil) {
			t.Fatalf("decode returned %v and %v", ur, err)
		}
		if err != nil {
			return
		}
		received, settled := counts()
		g.injectDownlinks(ur.Downlinks)
		received2, settled2 := counts()
		if n := uint64(len(ur.Downlinks)); received2-received != n || settled2-settled != n {
			t.Fatalf("%d downlinks: %d received, %d injected, failed or stale", n, received2-received, settled2-settled)
		}
	})
}

// TestBackendRejectsNonCanonicalBody holds the backend to the one body
// spelling the gateway writes: valid JSON spelled any other way is a 400,
// and none of its readings are kept.
func TestBackendRejectsNonCanonicalBody(t *testing.T) {
	b := NewBackend()
	body := appendUplinkRequest(nil, 0x0001, []Reading{testReading(0)})
	spaced := bytes.Replace(body, []byte(`"to":1,`), []byte(`"to": 1,`), 1)
	if bytes.Equal(spaced, body) || !json.Valid(spaced) {
		t.Fatalf("%s is not a respelling of %s", spaced, body)
	}
	for _, tc := range []struct {
		body []byte
		code int
	}{{spaced, http.StatusBadRequest}, {body, http.StatusOK}} {
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.body, rec.Code, tc.code)
		}
	}
	if b.Batches() != 1 || b.Distinct() != 1 {
		t.Fatalf("backend kept %d batches, %d readings; want only the canonical body's 1 and 1", b.Batches(), b.Distinct())
	}
}

// TestShardedBackendRoutesExactPaths holds the router to the paths URLs
// writes: anything else is 404, not a near-miss parse into some shard.
func TestShardedBackendRoutesExactPaths(t *testing.T) {
	sb := NewShardedBackend(2)
	body := appendUplinkRequest(nil, 0x0001, []Reading{testReading(0)})
	for _, tc := range []struct {
		path  string
		shard int // -1: no shard
	}{
		{"/s/0", 0},
		{"/s/1", 1},
		{"/s/0/readings", -1},
		{"/s/1x", -1},
		{"/s/+1", -1},
		{"/s/ 1", -1},
		{"/s/01", -1},
		{"/s/2", -1},
		{"/s/-1", -1},
		{"/s/", -1},
	} {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.URL.Path = tc.path
		before := sb.Batches()
		rec := httptest.NewRecorder()
		sb.ServeHTTP(rec, req)
		switch {
		case tc.shard < 0 && (rec.Code != http.StatusNotFound || sb.Batches() != before):
			t.Errorf("%q: status %d, %d batches accepted; want 404 and none", tc.path, rec.Code, sb.Batches()-before)
		case tc.shard >= 0 && (rec.Code != http.StatusOK || sb.Shard(tc.shard).Batches() != 1):
			t.Errorf("%q: status %d, shard %d holds %d batches; want 200 and one", tc.path, rec.Code, tc.shard, sb.Shard(tc.shard).Batches())
		}
	}
}

// TestGatewayRestartReplay is the durability acceptance test: readings
// spooled during a backend outage survive a gateway process restart and
// upload exactly once afterward.
func TestGatewayRestartReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "uplink.wal")
	b := NewBackend()
	b.SetFailing(true)
	srv := httptest.NewServer(b)
	defer srv.Close()

	cfg := Config{
		URLs:          []string{srv.URL},
		Addr:          0x0001,
		SpoolPath:     path,
		BatchSize:     8,
		FlushInterval: 20 * time.Millisecond,
		RetryBase:     10 * time.Millisecond,
		RetryMax:      50 * time.Millisecond,
	}
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1.Start()
	var want []trace.TraceID
	for i := 0; i < 10; i++ {
		r := testReading(i)
		want = append(want, r.Trace)
		if !g1.Offer(r) {
			t.Fatalf("offer %d rejected", i)
		}
	}
	// Give the loop a few failed attempts, then stop the process.
	time.Sleep(100 * time.Millisecond)
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Distinct() != 0 {
		t.Fatal("nothing should have reached the failing backend")
	}

	// "New process": same WAL, healthy backend.
	b.SetFailing(false)
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.Pending() != len(want) {
		t.Fatalf("replayed %d pending, want %d", g2.Pending(), len(want))
	}
	if g2.Metrics().Counter("gw.spool.replayed").Value() != uint64(len(want)) {
		t.Fatal("gw.spool.replayed not recorded")
	}
	g2.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && b.Distinct() < len(want) {
		time.Sleep(10 * time.Millisecond)
	}
	if b.Distinct() != len(want) || b.Duplicates() != 0 {
		t.Fatalf("after restart: distinct=%d dupes=%d, want %d/0",
			b.Distinct(), b.Duplicates(), len(want))
	}
	got := b.Readings()
	for i, id := range want {
		if got[i].Trace != id {
			t.Fatalf("reading %d out of order or lost: %v != %v", i, got[i].Trace, id)
		}
	}
}
