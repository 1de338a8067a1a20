package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The chaos-hardening mechanics: capped exponential stream backoff, the
// stream.retx.rounds histogram, and triggered route withdrawal.

func TestRetryDelayBackoffCapped(t *testing.T) {
	cfg := fastConfig() // StreamRetry 3s -> cap 24s
	b := newBus(t, cfg, 0x01)
	n := b.env(0x01).node

	base := n.cfg.StreamRetry
	cap := streamRetryCapFactor * base
	for rounds := 0; rounds < 8; rounds++ {
		want := base
		for i := 0; i < rounds && want < cap; i++ {
			want *= streamBackoff
		}
		if want > cap {
			want = cap
		}
		lo := time.Duration(0.9 * float64(want))
		hi := time.Duration(1.1*float64(want)) + time.Millisecond
		for trial := 0; trial < 20; trial++ {
			got := n.retryDelay(rounds)
			if got < lo || got > hi {
				t.Fatalf("retryDelay(%d) = %v outside jittered [%v, %v]", rounds, got, lo, hi)
			}
		}
	}
}

func TestRetryBudgetSumsBackoffSeries(t *testing.T) {
	cfg := fastConfig()
	cfg.StreamRetry = time.Second
	cfg.StreamMaxRetries = 4
	b := newBus(t, cfg, 0x01)
	n := b.env(0x01).node
	// Rounds 0..4 at 1,2,4,8,8 (capped) seconds.
	if got, want := n.retryBudget(), 23*time.Second; got != want {
		t.Fatalf("retryBudget = %v, want %v", got, want)
	}
}

func TestStreamRetxRoundsHistogram(t *testing.T) {
	cfg := fastConfig()
	cfg.StreamRetry = 2 * time.Second
	cfg.StreamMaxRetries = 2
	b := newBus(t, cfg, 0x01, 0x02)
	b.run(10 * time.Second) // converge

	// Successful stream: zero consecutive-timeout rounds observed.
	sender := b.env(0x01).node
	if _, err := sender.SendReliable(0x02, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b.run(5 * time.Second)
	h := sender.Metrics().Histogram("stream.retx.rounds")
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("after clean stream: count=%d max=%v, want 1 and 0", h.Count(), h.Max())
	}

	// Now sever the link: the stream must fail after exactly
	// StreamMaxRetries+1 rounds, and the histogram must record that
	// bounded worst case.
	b.drop = func(from, to packet.Address, _ []byte) bool { return true }
	if _, err := sender.SendReliable(0x02, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Backoff budget: 2+4+8 = 14 s for rounds 0..2 plus jitter.
	b.run(time.Minute)
	if h.Count() != 2 {
		t.Fatalf("failed stream not observed: count=%d", h.Count())
	}
	if got, want := h.Max(), float64(cfg.StreamMaxRetries+1); got != want {
		t.Fatalf("stream.retx.rounds max = %v, want bounded %v", got, want)
	}
	evs := b.env(0x01).events
	if len(evs) != 2 || evs[1].Err == nil {
		t.Fatalf("expected one success and one failure, got %+v", evs)
	}
}

// triggeredConfig is fastConfig plus the hardened routing behaviors.
func triggeredConfig() Config {
	cfg := fastConfig()
	cfg.TriggeredUpdates = true
	cfg.Routing.EntryTTL = 10 * time.Second
	cfg.Routing.Poisoning = true
	return cfg
}

func TestTriggeredWithdrawalOnExpiredNeighbor(t *testing.T) {
	// Chain D-A-B-C. When B (and with it C) falls silent, A expires the
	// whole branch after EntryTTL; with TriggeredUpdates that expiry
	// emits route.withdrawn events and an immediate triggered HELLO
	// whose poisoned rows kill D's routes through A right away.
	chain := []packet.Address{0x04, 0x01, 0x02, 0x03}
	cfg := triggeredConfig()
	cfg.Tracer = trace.New(8192, 0)
	b := newBus(t, cfg, chain...)
	b.drop = chainDrop(chain)
	b.run(15 * time.Second)

	a := b.env(0x01).node
	d := b.env(0x04).node
	if _, ok := d.Table().NextHop(0x03); !ok {
		t.Fatal("chain never converged")
	}

	// The far branch dies silently.
	b.env(0x02).node.Stop()
	b.env(0x03).node.Stop()

	// Within one EntryTTL plus one route-check period A expires the
	// branch, triggers a beacon, and D's routes via A die with it.
	b.run(cfg.Routing.EntryTTL + cfg.Routing.EntryTTL/4 + time.Second)
	if _, ok := a.Table().NextHop(0x02); ok {
		t.Fatal("A still routes to dead B")
	}
	if _, ok := d.Table().NextHop(0x03); ok {
		t.Fatal("poisoned withdrawal did not reach D")
	}
	if a.Metrics().Counter("hello.triggered").Value() == 0 {
		t.Fatal("no triggered HELLO broadcast the withdrawal")
	}
	withdrawn := false
	for _, ev := range cfg.Tracer.Events() {
		if ev.Node == "0001" && ev.Kind == trace.KindRoute &&
			strings.Contains(ev.Detail, "route.withdrawn") {
			withdrawn = true
			break
		}
	}
	if !withdrawn {
		t.Fatal("no route.withdrawn event traced")
	}
}

func TestTriggeredWithdrawalOnStreamFailure(t *testing.T) {
	cfg := triggeredConfig()
	cfg.StreamRetry = time.Second
	cfg.StreamMaxRetries = 1
	b := newBus(t, cfg, 0x01, 0x02)
	b.run(10 * time.Second)

	a := b.env(0x01).node
	if _, ok := a.Table().NextHop(0x02); !ok {
		t.Fatal("pair never converged")
	}
	// Sever the link, then push a reliable stream into the void: retry
	// exhaustion is link-death evidence and must withdraw the neighbor
	// without waiting for HELLO expiry.
	b.drop = func(from, to packet.Address, _ []byte) bool { return true }
	if _, err := a.SendReliable(0x02, []byte("into the void")); err != nil {
		t.Fatal(err)
	}
	b.run(10 * time.Second)
	if _, ok := a.Table().NextHop(0x02); ok {
		t.Fatal("dead next hop still routable after stream retry exhaustion")
	}
	if a.Metrics().Counter("routes.withdrawn").Value() == 0 {
		t.Fatal("routes.withdrawn never counted")
	}
}

func TestTriggeredHelloRateLimited(t *testing.T) {
	cfg := triggeredConfig()
	b := newBus(t, cfg, 0x01)
	n := b.env(0x01).node
	// A burst of withdrawals within the gap costs at most one beacon.
	for i := 0; i < 10; i++ {
		n.triggeredHello()
	}
	if got := n.Metrics().Counter("hello.triggered").Value(); got != 1 {
		t.Fatalf("burst of 10 triggered %d HELLOs, want 1", got)
	}
	b.run(n.triggeredHelloGap() + time.Millisecond)
	n.triggeredHello()
	if got := n.Metrics().Counter("hello.triggered").Value(); got != 2 {
		t.Fatalf("after the gap: %d triggered HELLOs, want 2", got)
	}
	// The gap is an expression of the live HELLO period: a controller
	// rollout that slows the beacon slows the triggered rate limit with it.
	old := n.triggeredHelloGap()
	const slow = 5 * time.Minute
	if st := n.applyConfig(control.Command{HelloPeriod: slow}); st != control.StatusOK {
		t.Fatalf("applyConfig: %v", st)
	}
	if got := n.triggeredHelloGap(); got != slow/10 || got <= old {
		t.Fatalf("gap after the rollout = %v, want HelloPeriod/10 = %v (was %v)", got, slow/10, old)
	}
	b.run(old + time.Millisecond)
	n.triggeredHello()
	if got := n.Metrics().Counter("hello.triggered").Value(); got != 2 {
		t.Fatalf("old gap still honoured after the rollout: %d triggered HELLOs, want 2", got)
	}
	b.run(slow / 10)
	n.triggeredHello()
	if got := n.Metrics().Counter("hello.triggered").Value(); got != 3 {
		t.Fatalf("after the new gap: %d triggered HELLOs, want 3", got)
	}
}
