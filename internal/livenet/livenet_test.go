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
	"repro/internal/health"
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

// chainConnect restricts hub connectivity to adjacent addresses.
func chainConnect(a, b packet.Address) bool {
	return a == b+1 || b == a+1
}

// mesh is a booted chain of hosts, addresses 1..n, adjacent hosts only in
// range of each other, plus where its observability lives: one listener
// and monitor for the whole hub, or host 1's own over UDP.
type mesh struct {
	hosts       []*Host
	metricsAddr string
	health      *health.Monitor
}

// links is the table every host-behaviour scenario runs over: the same
// Host on each of the two Links.
var links = []struct {
	name string
	boot func(t *testing.T, cfg Config, n int) mesh
	// metricPrefixes are the families the link's /metrics exposes the
	// engine counters under.
	metricPrefixes []string
	// healthz lists what the link's /healthz adds to the verdict.
	healthz []string
}{
	{
		name: "hub",
		boot: func(t *testing.T, cfg Config, n int) mesh {
			hub, err := New(cfg, chainConnect)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(hub.Close)
			m := mesh{metricsAddr: hub.MetricsAddr(), health: hub.Health()}
			for i := 1; i <= n; i++ {
				h, err := hub.AddNode(packet.Address(i))
				if err != nil {
					t.Fatal(err)
				}
				m.hosts = append(m.hosts, h)
			}
			return m
		},
		metricPrefixes: []string{"mesh_", "node_0001_"},
		healthz:        []string{`"nodes":3`, `"timescale":200`},
	},
	{
		name: "udp",
		boot: func(t *testing.T, cfg Config, n int) mesh {
			return bootUDPChain(t, cfg, n, 0)
		},
		metricPrefixes: []string{""},
		healthz:        []string{`"mesh":"0001"`, `"udp":"127.0.0.1:`},
	},
}

// bootUDPChain boots n hosts on localhost sockets wired as a chain
// (adjacent peers only, both ways), each dropping received frames at the
// given rate.
func bootUDPChain(t *testing.T, cfg Config, n int, drop float64) mesh {
	t.Helper()
	var m mesh
	socks := make([]*UDPLink, n)
	for i := range socks {
		l, err := ListenUDP("127.0.0.1:0", nil, drop)
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
		m.hosts = append(m.hosts, h)
	}
	for i := 0; i < n-1; i++ {
		if err := socks[i].AddPeer(socks[i+1].Addr().String()); err != nil {
			t.Fatal(err)
		}
		if err := socks[i+1].AddPeer(socks[i].Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	m.metricsAddr, m.health = m.hosts[0].MetricsAddr(), m.hosts[0].Health()
	return m
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

// TestLiveMeshConvergesAndRoutes: routes form across a 3-node chain and a
// datagram multi-hops end to end.
func TestLiveMeshConvergesAndRoutes(t *testing.T) {
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			hs := link.boot(t, liveConfig(), 3).hosts
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
}

// TestLiveReliableTransfer: a multi-fragment reliable stream crosses two
// hops intact and the sender hears the outcome.
func TestLiveReliableTransfer(t *testing.T) {
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			hs := link.boot(t, liveConfig(), 3).hosts
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
}

// TestMetricsEndpointScrape is the live-exposition acceptance test: an
// opt-in HTTP listener serves Prometheus-format metrics and a health
// probe while the mesh runs, and a real scrape over TCP finds tx/rx/drop
// counters and the duty-cycle gauge.
func TestMetricsEndpointScrape(t *testing.T) {
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			cfg := liveConfig()
			cfg.MetricsAddr = "127.0.0.1:0"
			m := link.boot(t, cfg, 3)
			hs := m.hosts
			if m.metricsAddr == "" {
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
				resp, err := http.Get("http://" + m.metricsAddr + path)
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
			for _, p := range link.metricPrefixes {
				for _, want := range []string{
					p + "tx_frames_total",
					p + "rx_frames_total",
					p + "drop_noroute_total",
					p + "dutycycle_utilization",
					"# TYPE " + p + "tx_frames_total counter",
					"# TYPE " + p + "dutycycle_utilization gauge",
				} {
					if !strings.Contains(body, want) {
						t.Errorf("scrape missing %q", want)
					}
				}
				// The mesh has been beaconing and forwarding: counts are
				// nonzero.
				for _, line := range strings.Split(body, "\n") {
					if strings.TrimPrefix(line, p+"tx_frames_total ") == "0" {
						t.Errorf("%stx_frames_total is zero on a running mesh", p)
					}
				}
			}

			healthz := scrape("/healthz")
			for _, want := range append([]string{`"status":"ok"`, `"uptime"`}, link.healthz...) {
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
}

// TestLiveHealthVerdict: with HealthInterval set the monitor polls on the
// scaled clock, scores what its view covers (every node of a hub, the one
// host over UDP), and its verdict is what /healthz and /metrics report.
func TestLiveHealthVerdict(t *testing.T) {
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			cfg := liveConfig()
			cfg.MetricsAddr = "127.0.0.1:0"
			cfg.HealthInterval = 5 * time.Second // 25 ms of wall time
			m := link.boot(t, cfg, 3)
			if m.health == nil {
				t.Fatal("HealthInterval did not arm the monitor")
			}
			if !waitFor(t, 15*time.Second, func() bool {
				return m.hosts[0].HasRoute(3) && m.hosts[2].HasRoute(1)
			}) {
				t.Fatal("no convergence")
			}
			var verdict map[string]any
			if !waitFor(t, 15*time.Second, func() bool {
				verdict = m.health.Verdict()
				return verdict["polls"].(uint64) >= 2 && verdict["status"] == "ok"
			}) {
				t.Fatalf("healthy chain never judged ok: %v", verdict)
			}
			wantNodes := 1
			if link.name == "hub" {
				wantNodes = 3
			}
			if got := len(verdict["scores"].(map[string]int)); got != wantNodes {
				t.Errorf("monitor scored %d nodes, want %d: %v", got, wantNodes, verdict)
			}
			for path, want := range map[string]string{
				"/healthz": `"polls":`,
				"/metrics": "health_nodes_total",
			} {
				resp, err := http.Get("http://" + m.metricsAddr + path)
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
}

// TestLiveCloseUnblocksDo closes a host while its timers are pending
// (HELLO beacons, a stream's retry timer, frames on the air) and callers
// hammer Do across the close: nothing may hang, and late timer firings
// must be dropped, not delivered to a stopped engine.
func TestLiveCloseUnblocksDo(t *testing.T) {
	for _, link := range links {
		t.Run(link.name, func(t *testing.T) {
			hs := link.boot(t, liveConfig(), 2).hosts
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
	if _, err := New(cfg, nil); err == nil {
		t.Error("hub on a bound metrics port: want error")
	}
	sock, err := ListenUDP("127.0.0.1:0", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(cfg, sock); err == nil {
		t.Error("host on a bound metrics port: want error")
	}
	if !waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after the failed constructors:\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	}
}

func TestLiveConcurrentSenders(t *testing.T) {
	// Full connectivity, several nodes sending simultaneously from test
	// goroutines: exercises the mailbox serialization under the race
	// detector.
	hub, err := New(liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const n = 5
	var hs []*Host
	for i := 1; i <= n; i++ {
		h, err := hub.AddNode(packet.Address(i))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
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

// TestLiveValidation covers what the hub refuses.
func TestLiveValidation(t *testing.T) {
	if _, err := New(Config{TimeScale: -1}, nil); err == nil {
		t.Error("negative time scale: want error")
	}
	hub, err := New(liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.AddNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.AddNode(1); err == nil {
		t.Error("duplicate address: want error")
	}
	if _, err := hub.AddNode(packet.Broadcast); err == nil {
		t.Error("broadcast node address: want error")
	}
	if got := len(hub.hosts()); got != 1 {
		t.Errorf("%d hosts joined after two refused AddNodes, want 1", got)
	}
	hub.Close()
	hub.Close() // idempotent
	if _, err := hub.AddNode(2); err == nil {
		t.Error("AddNode after Close: want error")
	}
}

// TestHubConnectPredicate: the hub delivers a frame only where Connect
// says the sender is heard — here 1<->2 are in range and 3 hears nobody.
func TestHubConnectPredicate(t *testing.T) {
	hub, err := New(liveConfig(), func(a, b packet.Address) bool { return a != 3 && b != 3 })
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var hs []*Host
	for a := packet.Address(1); a <= 3; a++ {
		h, err := hub.AddNode(a)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if !waitFor(t, 10*time.Second, func() bool { return hs[0].HasRoute(2) && hs[1].HasRoute(1) }) {
		t.Fatal("connected pair did not converge")
	}
	// Many HELLO periods have passed by now; the cut-off node learned
	// nothing and nobody learned of it.
	time.Sleep(100 * time.Millisecond)
	if hs[2].HasRoute(1) || hs[2].HasRoute(2) || hs[0].HasRoute(3) || hs[1].HasRoute(3) {
		t.Error("frames crossed a link Connect refuses")
	}
}

// TestCarrierSense: the hub senses a transmission for exactly its
// airtime, from every port; a UDP socket never senses one.
func TestCarrierSense(t *testing.T) {
	hub, err := New(liveConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, b := &port{hub: hub}, &port{hub: hub}
	if a.Busy() || b.Busy() {
		t.Fatal("idle hub senses carrier")
	}
	// Unjoined ports: nobody hears the frame, but the channel is held.
	done := make(chan struct{})
	a.Send([]byte{1}, 50*time.Millisecond, func() { close(done) })
	if !a.Busy() || !b.Busy() {
		t.Error("no carrier while a frame is on the air")
	}
	<-done
	if a.Busy() || b.Busy() {
		t.Error("carrier outlasted the frame's airtime")
	}

	sock, err := ListenUDP("127.0.0.1:0", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	done = make(chan struct{})
	sock.Send([]byte{1}, 20*time.Millisecond, func() { close(done) })
	if sock.Busy() {
		t.Error("UDP link claims carrier sense")
	}
	<-done
}

// TestUDPReliableWithLoss: 10% injected receive loss on every host — the
// ARQ must still get the payload across two hops of real sockets.
func TestUDPReliableWithLoss(t *testing.T) {
	hs := bootUDPChain(t, liveConfig(), 3, 0.10).hosts
	if !waitFor(t, 20*time.Second, func() bool { return hs[0].HasRoute(3) }) {
		t.Fatal("no convergence under loss")
	}
	payload := testPayload(900, 11)
	if _, err := hs[0].SendReliable(3, payload); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 60*time.Second, func() bool { return len(hs[0].StreamEvents()) == 1 }) {
		t.Fatal("stream never finished")
	}
	if ev := hs[0].StreamEvents()[0]; ev.Err != nil {
		t.Fatalf("stream failed: %v", ev.Err)
	}
	msgs := hs[2].Messages()
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatal("payload corrupted over lossy UDP mesh")
	}
}

// TestUDPValidation covers what the UDP link and a lone host refuse.
func TestUDPValidation(t *testing.T) {
	if _, err := ListenUDP("127.0.0.1:0", nil, 1.5); err == nil {
		t.Error("drop rate 1.5: want error")
	}
	if _, err := ListenUDP("not-an-address", nil, 0); err == nil {
		t.Error("bad listen address: want error")
	}
	if _, err := ListenUDP("127.0.0.1:0", []string{"///"}, 0); err == nil {
		t.Error("bad initial peer: want error")
	}
	listen := func() *UDPLink {
		l, err := ListenUDP("127.0.0.1:0", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	// A failed Start closes the link it was given.
	l := listen()
	if _, err := Start(Config{TimeScale: -1, Node: core.Config{Address: 1}}, l); err == nil {
		t.Error("negative scale: want error")
	}
	if _, err := l.conn.WriteToUDP([]byte{0}, l.Addr()); err == nil {
		t.Error("link still open after a failed Start")
	}
	if _, err := Start(Config{Node: core.Config{Address: packet.Broadcast}}, listen()); err == nil {
		t.Error("broadcast node address: want error")
	}
	l = listen()
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
