package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/simtime"
)

func TestNodeConfigValidation(t *testing.T) {
	env := &testEnv{}
	if _, err := NewNode(Config{Address: packet.Broadcast}, env); err == nil {
		t.Error("broadcast address: want error")
	}
	if _, err := NewNode(Config{Address: 1}, nil); err == nil {
		t.Error("nil env: want error")
	}
	cfg := Config{Address: 1, DutyCycleLimit: 2}
	if _, err := NewNode(cfg, env); err == nil {
		t.Error("duty cycle 2: want error")
	}
	// Frequency outside EU868 with automatic duty limit: error surfaces.
	cfg = fastConfig()
	cfg.Address = 1
	cfg.DutyCycleLimit = 0
	cfg.Phy.FrequencyHz = 915e6
	cfg.Phy.SpreadingFactor = 7
	cfg.Phy.Bandwidth = 1
	cfg.Phy.CodingRate = 1
	cfg.Phy.PreambleSymbols = 8
	if _, err := NewNode(cfg, env); err == nil {
		t.Error("915 MHz with auto duty limit: want error")
	}
}

func TestStartTwiceAndStop(t *testing.T) {
	b := newBus(t, fastConfig(), 1)
	n := b.env(1).node
	if err := n.Start(); err == nil {
		t.Error("second Start: want error")
	}
	n.Stop()
	if err := n.Send(2, []byte("x")); !errors.Is(err, ErrStopped) {
		t.Errorf("Send after Stop = %v, want ErrStopped", err)
	}
	if err := n.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("Start after Stop = %v, want ErrStopped", err)
	}
	// A stopped node ignores frames without panicking.
	n.HandleFrame([]byte{0, 1, 0, 2, 4, 6}, RxInfo{})
	n.HandleTxDone()
}

func TestNeighborDiscoveryViaHello(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	b.run(5 * time.Second) // a couple of hello periods
	for _, pair := range [][2]packet.Address{{1, 2}, {2, 1}} {
		n := b.env(pair[0]).node
		e, ok := n.Table().Lookup(pair[1])
		if !ok {
			t.Fatalf("node %v did not discover %v", pair[0], pair[1])
		}
		if e.Metric != 1 || e.Via != pair[1] {
			t.Errorf("node %v entry for %v = %+v, want direct neighbor", pair[0], pair[1], e)
		}
	}
}

func TestChainConvergenceAndForwarding(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	b := newBus(t, fastConfig(), chain...)
	b.drop = chainDrop(chain)
	b.run(10 * time.Second)

	a := b.env(1).node
	e, ok := a.Table().Lookup(3)
	if !ok {
		t.Fatal("node 1 has no route to 3")
	}
	if e.Via != 2 || e.Metric != 2 {
		t.Fatalf("route 1->3 = %+v, want via 2 metric 2", e)
	}

	if err := a.Send(3, []byte("over the hill")); err != nil {
		t.Fatal(err)
	}
	b.run(5 * time.Second)
	msgs := b.env(3).msgs
	if len(msgs) != 1 {
		t.Fatalf("node 3 received %d messages, want 1", len(msgs))
	}
	if string(msgs[0].Payload) != "over the hill" || msgs[0].From != 1 {
		t.Errorf("message = %+v", msgs[0])
	}
	if msgs[0].Reliable {
		t.Error("plain datagram marked reliable")
	}
	// The middle node forwarded exactly one data frame.
	if got := b.env(2).node.Metrics().Counter("fwd.frames").Value(); got != 1 {
		t.Errorf("node 2 forwarded %d frames, want 1", got)
	}
	// The endpoint never saw the packet addressed via node 2's first hop.
	if len(b.env(2).msgs) != 0 {
		t.Error("relay delivered a packet not addressed to it")
	}
}

func TestSendErrors(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	n := b.env(1).node
	if err := n.Send(9, []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send to unknown = %v, want ErrNoRoute", err)
	}
	big := make([]byte, packet.MaxPayload(packet.TypeData)+1)
	if err := n.Send(2, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized Send = %v, want ErrTooLarge", err)
	}
}

func TestBroadcastDataIsSingleHop(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	b := newBus(t, fastConfig(), chain...)
	b.drop = chainDrop(chain)
	b.run(6 * time.Second)
	if err := b.env(1).node.Send(packet.Broadcast, []byte("hi all")); err != nil {
		t.Fatal(err)
	}
	b.run(3 * time.Second)
	if len(b.env(2).msgs) != 1 {
		t.Errorf("neighbor got %d broadcast messages, want 1", len(b.env(2).msgs))
	}
	if len(b.env(3).msgs) != 0 {
		t.Error("broadcast was forwarded beyond one hop")
	}
}

func TestOverhearingIgnored(t *testing.T) {
	// Full connectivity, 3 nodes. 1 sends to 3 directly (via=3); node 2
	// overhears but must not deliver or forward.
	b := newBus(t, fastConfig(), 1, 2, 3)
	b.run(6 * time.Second)
	if err := b.env(1).node.Send(3, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	b.run(2 * time.Second)
	if len(b.env(3).msgs) != 1 {
		t.Fatalf("destination got %d messages, want 1", len(b.env(3).msgs))
	}
	if len(b.env(2).msgs) != 0 {
		t.Error("overhearing node delivered the packet")
	}
	if got := b.env(2).node.Metrics().Counter("rx.overheard").Value(); got == 0 {
		t.Error("overheard counter not incremented")
	}
}

func TestRouteExpiryAfterNodeDeath(t *testing.T) {
	cfg := fastConfig()
	cfg.Routing = routing.Config{EntryTTL: 6 * time.Second}
	b := newBus(t, cfg, 1, 2)
	b.run(5 * time.Second)
	if _, ok := b.env(1).node.Table().Lookup(2); !ok {
		t.Fatal("setup: node 1 should know node 2")
	}
	b.env(2).node.Stop()
	b.run(15 * time.Second)
	if _, ok := b.env(1).node.Table().NextHop(2); ok {
		t.Error("route to dead node did not expire")
	}
	if got := b.env(1).node.Metrics().Counter("routes.expired").Value(); got == 0 {
		t.Error("routes.expired not counted")
	}
}

func TestHelloJitterDesynchronizes(t *testing.T) {
	// With jitter on, two nodes started simultaneously must not beacon at
	// identical instants forever. Count tx frames; both should transmit
	// despite sharing t=0 start.
	b := newBus(t, fastConfig(), 1, 2)
	b.run(20 * time.Second)
	tx1 := b.env(1).node.Metrics().Counter("tx.frames").Value()
	tx2 := b.env(2).node.Metrics().Counter("tx.frames").Value()
	if tx1 < 5 || tx2 < 5 {
		t.Errorf("tx counts %d/%d, want ≥5 each over 10 periods", tx1, tx2)
	}
	// And they discovered each other (so beacons were not all colliding).
	if _, ok := b.env(1).node.Table().Lookup(2); !ok {
		t.Error("nodes failed to discover each other")
	}
}

func TestQueueFullRejectsDataKeepsHello(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	b.run(5 * time.Second) // discover each other
	n := b.env(1).node

	// Fill the queue faster than the radio drains (no sim time passes
	// between Sends, so nothing transmits in between; the first Send
	// starts transmitting immediately and the rest stack up).
	var fullErr error
	sends := 0
	for ; sends < queueCapacity+2 && fullErr == nil; sends++ {
		fullErr = n.Send(2, []byte("filler"))
	}
	if !errors.Is(fullErr, ErrQueueFull) || sends != queueCapacity+2 {
		t.Fatalf("Send %d = %v, want ErrQueueFull on send %d (one on air, %d queued)",
			sends, fullErr, queueCapacity+2, queueCapacity)
	}
	if n.Metrics().Counter("drop.queue_full").Value() == 0 {
		t.Error("drop.queue_full not counted")
	}
	// A HELLO still gets in by evicting a data packet.
	before := n.tx.queue.len()
	n.sendHello()
	if n.tx.queue.len() != before {
		t.Errorf("queue length changed %d -> %d, want eviction keeping it full", before, n.tx.queue.len())
	}
	hasHello := false
	for _, lvl := range n.tx.queue.levels {
		for i := range lvl.n {
			if lvl.at(i).p.Type == packet.TypeHello {
				hasHello = true
			}
		}
	}
	if !hasHello {
		t.Error("HELLO did not displace a data packet in a full queue")
	}
}

func TestCADDefersWhileBusy(t *testing.T) {
	cfg := fastConfig()
	cfg.CAD = true
	b := newBus(t, cfg, 1, 2)
	b.busy = true
	b.run(10 * time.Second)
	n := b.env(1).node
	// Transmissions still happen after max tries (LBT is best-effort),
	// each one after exactly cadMaxTries deferrals.
	tx := n.Metrics().Counter("tx.frames").Value()
	if tx == 0 {
		t.Fatal("node never transmitted despite the cadMaxTries cap")
	}
	deferrals := n.Metrics().Counter("cad.deferrals").Value()
	if deferrals < cadMaxTries*tx || deferrals >= cadMaxTries*(tx+1) {
		t.Errorf("%d CAD deferrals for %d frames on a busy channel, want %d per frame",
			deferrals, tx, cadMaxTries)
	}
}

func TestDutyCycleDefersTransmissions(t *testing.T) {
	cfg := fastConfig()
	cfg.DutyCycleLimit = 0 // derive from 868.1 MHz -> 1%
	b := newBus(t, cfg, 1, 2)
	b.run(5 * time.Second)
	n := b.env(1).node
	// Saturate: each ~230B data frame is ≈0.37 s of airtime; the hourly
	// budget is 36 s, so ~100 frames exhaust it.
	payload := make([]byte, 200)
	sent := 0
	for i := 0; i < 300; i++ {
		if err := n.Send(2, payload); err == nil {
			sent++
		}
		b.run(2 * time.Second)
	}
	if got := n.Metrics().Counter("dutycycle.deferrals").Value(); got == 0 {
		t.Error("saturating sender never hit the duty-cycle gate")
	}
	// Airtime stays within the 1% budget (36s) plus one frame of slack.
	if air := n.AirtimeUsed(); air > 40*time.Second {
		t.Errorf("airtime used = %v, want ≤ ~36s over the first hour", air)
	}
}

func TestDutyCycleDisabledUsesUnlimited(t *testing.T) {
	cfg := fastConfig() // DutyCycleLimit: 1
	b := newBus(t, cfg, 1, 2)
	b.run(5 * time.Second)
	n := b.env(1).node
	for i := 0; i < 150; i++ {
		_ = n.Send(2, make([]byte, 200))
		b.run(time.Second)
	}
	if got := n.Metrics().Counter("dutycycle.deferrals").Value(); got != 0 {
		t.Errorf("deferrals = %d with regulation disabled, want 0", got)
	}
	if air := n.AirtimeUsed(); air < 40*time.Second {
		t.Errorf("airtime = %v, expected well past the 1%% budget", air)
	}
}

func TestForwardingDedupBreaksLoops(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	b.run(5 * time.Second)
	n := b.env(2).node
	// Hand node 2 the same routed frame twice within the horizon, as a
	// routing loop would. It must forward only once.
	p := &packet.Packet{Dst: 1, Src: 3, Type: packet.TypeData, Via: 2, Payload: []byte("loop")}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(frame, RxInfo{})
	n.HandleFrame(frame, RxInfo{})
	if got := n.Metrics().Counter("fwd.frames").Value(); got != 1 {
		t.Errorf("forwarded %d copies, want 1 (dedup)", got)
	}
	if got := n.Metrics().Counter("drop.duplicate").Value(); got != 1 {
		t.Errorf("drop.duplicate = %d, want 1", got)
	}
}

func TestOwnEchoDropped(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	b.run(3 * time.Second)
	n := b.env(1).node
	p := &packet.Packet{Dst: 2, Src: 1, Type: packet.TypeData, Via: 1, Payload: []byte("echo")}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	fwdBefore := n.Metrics().Counter("fwd.frames").Value()
	n.HandleFrame(frame, RxInfo{})
	if got := n.Metrics().Counter("rx.own_echo").Value(); got != 1 {
		t.Errorf("rx.own_echo = %d, want 1", got)
	}
	if got := n.Metrics().Counter("fwd.frames").Value(); got != fwdBefore {
		t.Error("own echo was forwarded")
	}
}

func TestCorruptFrameCounted(t *testing.T) {
	b := newBus(t, fastConfig(), 1)
	n := b.env(1).node
	n.HandleFrame([]byte{1, 2, 3}, RxInfo{})
	if got := n.Metrics().Counter("rx.corrupt").Value(); got != 1 {
		t.Errorf("rx.corrupt = %d, want 1", got)
	}
}

func TestMetricsNamesStable(t *testing.T) {
	b := newBus(t, fastConfig(), 1, 2)
	b.run(6 * time.Second)
	snap := b.env(1).node.Metrics().Snapshot()
	for _, want := range []string{"tx.frames", "rx.frames", "hello.sent", "hello.received"} {
		if _, ok := snap[want]; !ok {
			t.Errorf("counter %q missing from %v", want, snap)
		}
	}

	// The schema a scrape sees at boot, before any frame, with and
	// without link security.
	schema := []string{
		"app.delivered", "app.sent", "drop.duplicate", "drop.dutycycle", "drop.marshal",
		"drop.noroute", "drop.queue_full", "drop.txerror", "dutycycle.deferrals",
		"dutycycle.utilization", "fwd.frames", "hello.received", "queue.depth",
		"queue.wait_ms.count", "routes.count", "routes.updated", "rx.corrupt", "rx.frames",
		"rx.overheard", "rx.own_echo", "stream.retx.rounds.count", "tx.airtime_ms.count",
		"tx.bytes", "tx.frames",
	}
	secSchema := append(slices.Clone(schema),
		"sec.counter.rx.highwater", "sec.counter.tx.highwater", "sec.drop.auth",
		"sec.drop.legacy", "sec.drop.replay", "sec.overhead.bytes",
		"sec.rekey.applied", "sec.replay.window.occupancy", "sec.replay.window.origins",
		"sec.rx.opened", "sec.tx.sealed",
	)
	for _, sec := range []bool{false, true} {
		cfg, want := fastConfig(), schema
		cfg.Address = 1
		if sec {
			cfg.Security, want = meshsec.NewLink(testNetKey, 1), secSchema
		}
		n, err := NewNode(cfg, &testEnv{b: &bus{sched: simtime.NewScheduler(t0)}, addr: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for name := range n.Metrics().Snapshot() {
			got = append(got, name)
		}
		slices.Sort(got)
		if slices.Sort(want); !slices.Equal(got, want) {
			t.Errorf("security %v: NewNode registers\n %q\nwant\n %q", sec, got, want)
		}
	}
}

func TestRoleAdvertisementAndDiscovery(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	cfg := fastConfig()
	b := &bus{sched: simtime.NewScheduler(t0)}
	roles := map[packet.Address]packet.Role{
		1: packet.RoleDefault, 2: packet.RoleDefault, 3: packet.RoleSink,
	}
	for i, a := range chain {
		c := cfg
		c.Address = a
		c.Role = roles[a]
		env := &testEnv{b: b, addr: a, rng: rand.New(rand.NewSource(int64(i) + 1))}
		n, err := NewNode(c, env)
		if err != nil {
			t.Fatal(err)
		}
		env.node = n
		env.phy = n.Config().Phy
		b.envs = append(b.envs, env)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	b.drop = chainDrop(chain)
	b.run(10 * time.Second)

	// Node 1 is two hops from the sink; the sink's role must have
	// propagated through node 2's adverts.
	sinks := b.env(1).node.FindByRole(packet.RoleSink)
	if len(sinks) != 1 || sinks[0] != 3 {
		t.Fatalf("FindByRole(sink) = %v, want [0003]", sinks)
	}
	if got := b.env(1).node.FindByRole(packet.RoleGateway); len(got) != 0 {
		t.Errorf("FindByRole(gateway) = %v, want empty", got)
	}
	// Defaults: node 3 sees two default-role nodes, nearest first.
	defaults := b.env(3).node.FindByRole(packet.RoleDefault)
	if len(defaults) != 2 || defaults[0] != 2 || defaults[1] != 1 {
		t.Errorf("FindByRole(default) = %v, want [0002 0001] nearest first", defaults)
	}
}
