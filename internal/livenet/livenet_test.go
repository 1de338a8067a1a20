package livenet

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/routing"
)

// liveConfig compresses time 200x so a 2 s virtual HELLO period fires
// every 10 ms of wall time.
func liveConfig() Config {
	return Config{
		TimeScale: 200,
		Seed:      1,
		Node: core.Config{
			HelloPeriod:    2 * time.Second,
			StreamRetry:    4 * time.Second,
			DutyCycleLimit: 1,
			Routing:        routing.Config{EntryTTL: 30 * time.Second},
		},
	}
}

// bootUDP boots n hosts, addresses 1..n, on localhost sockets, hosts i
// and j in range of each other (peers, both ways) when their indices
// differ by at most reach: 1 wires a chain, n a full mesh.
func bootUDP(t *testing.T, cfg Config, n, reach int) []*Host {
	t.Helper()
	var hs []*Host
	socks := make([]*UDPLink, n)
	for i := range socks {
		l, err := ListenUDP("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		socks[i] = l
		c := cfg
		c.Node.Address = packet.Address(i + 1)
		h, err := Start(c, l)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		hs = append(hs, h)
	}
	for i := range socks {
		for j := range socks {
			if i == j || i-j > reach || j-i > reach {
				continue
			}
			if err := socks[i].AddPeer(socks[j].Addr().String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func testPayload(n, step int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * step)
	}
	return p
}

// The host-behaviour scenarios below each run as the subtest "udp": the
// name of the one link a host runs over.

// TestLiveMeshConvergesAndRoutes: routes form across a 3-node chain and a
// datagram multi-hops end to end.
func TestLiveMeshConvergesAndRoutes(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		hs := bootUDP(t, liveConfig(), 3, 1)
		if !waitFor(t, 15*time.Second, func() bool { return hs[0].HasRoute(3) && hs[2].HasRoute(1) }) {
			t.Fatal("live mesh did not converge")
		}
		if err := hs[0].Send(3, []byte("live multi-hop")); err != nil {
			t.Fatal(err)
		}
		if !waitFor(t, 15*time.Second, func() bool { return len(hs[2].Messages()) >= 1 }) {
			t.Fatal("datagram not delivered over the live mesh")
		}
		msg := hs[2].Messages()[0]
		if string(msg.Payload) != "live multi-hop" || msg.From != 1 {
			t.Errorf("message = %+v", msg)
		}
		if hs[0].Addr() != 1 || hs[2].Addr() != 3 {
			t.Errorf("addresses = %v, %v", hs[0].Addr(), hs[2].Addr())
		}
	})
}

// TestLiveReliableTransfer: a multi-fragment reliable stream crosses two
// hops intact and the sender hears the outcome.
func TestLiveReliableTransfer(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		hs := bootUDP(t, liveConfig(), 3, 1)
		if !waitFor(t, 15*time.Second, func() bool { return hs[0].HasRoute(3) }) {
			t.Fatal("no convergence")
		}
		payload := testPayload(1200, 3)
		if _, err := hs[0].SendReliable(3, payload); err != nil {
			t.Fatal(err)
		}
		if !waitFor(t, 30*time.Second, func() bool { return len(hs[0].StreamEvents()) == 1 }) {
			t.Fatal("stream never completed")
		}
		if ev := hs[0].StreamEvents()[0]; ev.Err != nil {
			t.Fatalf("stream failed: %v", ev.Err)
		}
		msgs := hs[2].Messages()
		if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
			t.Fatal("reliable payload corrupted over live mesh")
		}
	})
}

// TestMetricsEndpointScrape is the live-exposition acceptance test: an
// opt-in HTTP listener serves Prometheus-format metrics and a health
// probe while the mesh runs, and a real scrape over TCP finds host 1's
// tx/rx/drop counters and the duty-cycle gauge.
func TestMetricsEndpointScrape(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		cfg := liveConfig()
		cfg.MetricsAddr = "127.0.0.1:0"
		hs := bootUDP(t, cfg, 3, 1)
		metricsAddr := hs[0].MetricsAddr()
		if metricsAddr == "" {
			t.Fatal("metrics listener not bound")
		}
		if !waitFor(t, 15*time.Second, func() bool { return hs[0].HasRoute(3) }) {
			t.Fatal("no route 1->3")
		}
		if err := hs[0].Send(3, []byte("scrape me")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 15*time.Second, func() bool { return len(hs[2].Messages()) >= 1 })

		scrape := func(path string) string {
			resp, err := http.Get("http://" + metricsAddr + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return ""
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
			}
			return string(body)
		}

		body := scrape("/metrics")
		for _, want := range []string{
			"tx_frames_total",
			"rx_frames_total",
			"drop_noroute_total",
			"dutycycle_utilization",
			"# TYPE tx_frames_total counter",
			"# TYPE dutycycle_utilization gauge",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("scrape missing %q", want)
			}
		}
		// The host has been beaconing and sending: the count is nonzero.
		for _, line := range strings.Split(body, "\n") {
			if strings.TrimPrefix(line, "tx_frames_total ") == "0" {
				t.Error("tx_frames_total is zero on a running mesh")
			}
		}

		healthz := scrape("/healthz")
		for _, want := range []string{`"status":"ok"`, `"uptime"`, `"mesh":"0001"`, `"udp":"127.0.0.1:`} {
			if !strings.Contains(healthz, want) {
				t.Errorf("healthz missing %s: %s", want, healthz)
			}
		}

		// Scrapes must stay readable while nodes keep working (the
		// race detector guards this test).
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = scrape("/metrics")
			}()
		}
		hs[0].Send(3, []byte("concurrent with scrapes"))
		wg.Wait()
	})
}

// TestLiveHealthVerdict: with HealthInterval set the monitor polls on the
// scaled clock, scores the one host it watches, and its verdict is what
// /healthz and /metrics report.
func TestLiveHealthVerdict(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		cfg := liveConfig()
		cfg.MetricsAddr = "127.0.0.1:0"
		cfg.HealthInterval = 5 * time.Second // 25 ms of wall time
		hs := bootUDP(t, cfg, 3, 1)
		monitor := hs[0].obs.health
		if monitor == nil {
			t.Fatal("HealthInterval did not arm the monitor")
		}
		if !waitFor(t, 15*time.Second, func() bool { return hs[0].HasRoute(3) && hs[2].HasRoute(1) }) {
			t.Fatal("no convergence")
		}
		var verdict map[string]any
		if !waitFor(t, 15*time.Second, func() bool {
			verdict = monitor.Verdict()
			return verdict["polls"].(uint64) >= 2 && verdict["status"] == "ok"
		}) {
			t.Fatalf("healthy chain never judged ok: %v", verdict)
		}
		if got := len(verdict["scores"].(map[string]int)); got != 1 {
			t.Errorf("monitor scored %d nodes, want 1: %v", got, verdict)
		}
		for path, want := range map[string]string{
			"/healthz": `"polls":`,
			"/metrics": "health_nodes_total",
		} {
			resp, err := http.Get("http://" + hs[0].MetricsAddr() + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), want) {
				t.Errorf("GET %s missing %q:\n%s", path, want, body)
			}
		}
	})
}

// TestLiveCloseUnblocksDo closes a host while its timers are pending
// (HELLO beacons, a stream's retry timer, frames on the air) and callers
// hammer Do across the close: nothing may hang, and late timer firings
// must be dropped, not delivered to a stopped engine.
func TestLiveCloseUnblocksDo(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		hs := bootUDP(t, liveConfig(), 2, 1)
		if !waitFor(t, 15*time.Second, func() bool { return hs[0].HasRoute(2) }) {
			t.Fatal("no convergence")
		}
		if _, err := hs[0].SendReliable(2, testPayload(2000, 7)); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			// Hammer Do across the close; none may hang.
			for i := 0; i < 1000; i++ {
				hs[0].Do(func(*core.Node) {})
			}
			close(done)
		}()
		closed := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond)
			hs[0].Close()
			hs[0].Close() // idempotent
			close(closed)
		}()
		for _, ch := range []chan struct{}{done, closed} {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatal("Do or Close hung across the close")
			}
		}
		// A closed host answers instead of blocking.
		if hs[0].HasRoute(2) {
			t.Error("closed host still ran an engine query")
		}
	})
}

// TestMetricsListenerFailureLeaksNothing: a MetricsAddr that cannot be
// bound fails construction, and — with the health monitor armed too —
// leaves no goroutine behind.
func TestMetricsListenerFailureLeaksNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	cfg := liveConfig()
	cfg.Node.Address = 1
	cfg.MetricsAddr = taken.Addr().String()
	cfg.HealthInterval = time.Second

	before := runtime.NumGoroutine()
	sock, err := ListenUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(cfg, sock); err == nil {
		t.Error("host on a bound metrics port: want error")
	}
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after the failed constructor:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}

func TestLiveConcurrentSenders(t *testing.T) {
	// Full connectivity, several nodes sending simultaneously from test
	// goroutines: exercises the mailbox serialization under the race
	// detector.
	const n = 5
	hs := bootUDP(t, liveConfig(), n, n)
	if !waitFor(t, 10*time.Second, func() bool {
		for _, h := range hs {
			var routes int
			h.Do(func(node *core.Node) { routes = node.Table().Len() })
			if routes < n-1 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("full mesh did not converge")
	}
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h *Host) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				dst := packet.Address((i+1)%n + 1)
				if err := h.Send(dst, []byte{byte(i), byte(j)}); err != nil {
					t.Errorf("send %d/%d: %v", i, j, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i, h)
	}
	wg.Wait()
	total := func() int {
		sum := 0
		for _, h := range hs {
			sum += len(h.Messages())
		}
		return sum
	}
	if !waitFor(t, 20*time.Second, func() bool { return total() >= n*5*8/10 }) {
		t.Fatalf("only %d/%d messages delivered", total(), n*5)
	}
}

// listenUDP binds one link on an ephemeral localhost port.
func listenUDP(t *testing.T) *UDPLink {
	t.Helper()
	l, err := ListenUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLiveValidation covers what Start refuses, and that a failed Start
// closes the link it was given.
func TestLiveValidation(t *testing.T) {
	l := listenUDP(t)
	if _, err := Start(Config{TimeScale: -1, Node: core.Config{Address: 1}}, l); err == nil {
		t.Error("negative time scale: want error")
	}
	if _, err := l.conn.WriteToUDP([]byte{0}, l.Addr()); err == nil {
		t.Error("link still open after a failed Start")
	}
	if _, err := Start(Config{Node: core.Config{Address: packet.Broadcast}}, listenUDP(t)); err == nil {
		t.Error("broadcast node address: want error")
	}
}

// TestUDPValidation covers what the UDP link refuses.
func TestUDPValidation(t *testing.T) {
	if _, err := ListenUDP("not-an-address", nil); err == nil {
		t.Error("bad listen address: want error")
	}
	if _, err := ListenUDP("127.0.0.1:0", []string{"///"}); err == nil {
		t.Error("bad initial peer: want error")
	}
	l := listenUDP(t)
	h, err := Start(Config{Node: core.Config{Address: 7, DutyCycleLimit: 1}}, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AddPeer("///"); err == nil {
		t.Error("bad peer address: want error")
	}
	if h.Addr() != 7 {
		t.Errorf("mesh address = %v", h.Addr())
	}
	h.Close()
	h.Close() // idempotent
}
