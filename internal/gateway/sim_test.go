package gateway

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/meshsec"
	"repro/internal/netsim"
	"repro/internal/routing"

	"repro/internal/core"
)

// simChain builds a converged n-node chain with node 0 as the sink.
func simChain(t *testing.T, n int, seed int64) *netsim.Sim {
	return simChainKeyed(t, n, seed, nil)
}

// simChainKeyed is simChain on a link-layer-secured mesh when key is
// non-nil.
func simChainKeyed(t *testing.T, n int, seed int64, key *meshsec.Key) *netsim.Sim {
	t.Helper()
	topo, err := geo.Line(n, 8000)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.New(netsim.Config{
		Topology: topo,
		Node: core.Config{
			HelloPeriod: 2 * time.Minute,
			Routing:     routing.Config{EntryTTL: 10 * time.Minute},
		},
		Seed:   seed,
		SecKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.TimeToConvergence(30*time.Second, 30*time.Minute); !ok {
		t.Fatal("chain never converged")
	}
	return sim
}

// simGateway builds a gateway with virtual-time-friendly windows.
func simGateway(t *testing.T, url, spoolPath string) *Gateway {
	t.Helper()
	g, err := New(Config{
		URLs:             []string{url},
		SpoolPath:        spoolPath,
		BatchSize:        8,
		FlushInterval:    30 * time.Second,
		RetryBase:        10 * time.Second,
		RetryMax:         time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// drain runs the simulation until the gateway spool is empty.
func drain(t *testing.T, sim *netsim.Sim, g *Gateway) {
	t.Helper()
	if _, ok := sim.RunUntil(func() bool { return g.Pending() == 0 }, 10*time.Second, 30*time.Minute); !ok {
		t.Fatalf("spool never drained: pending=%d breaker=%v", g.Pending(), g.BreakerOpen())
	}
}

// TestSimEndToEnd is the subsystem acceptance test: a 5-node chain with a
// sink-side gateway delivers every reading that reaches the sink to the
// backend exactly once (trace-ID dedup verified backend-side).
func TestSimEndToEnd(t *testing.T) {
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	sim := simChain(t, 5, 1)
	g := simGateway(t, srv.URL, "")
	if err := AttachSim(sim, 0, g); err != nil {
		t.Fatal(err)
	}

	// Telemetry from every node to the sink, a fixed number of readings
	// per source so the workload finishes and the spool can fully drain.
	// Poisson gaps desynchronize the sources; fixed gaps would collide on
	// a common grid forever.
	var stats []*netsim.TrafficStats
	for i := 1; i < sim.N(); i++ {
		st, err := sim.StartFlow(netsim.Flow{
			From: i, To: 0, Payload: 12, Interval: 15 * time.Second, Count: 10,
			Poisson: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, st)
	}
	sim.Run(5 * time.Minute) // sends complete within 150s; leave slack
	drain(t, sim, g)

	merged := netsim.MergeStats(stats)
	atSink := len(sim.Handle(0).Msgs)
	if merged.Delivered < 36 { // the mesh itself must mostly work
		t.Fatalf("mesh delivered only %d/40", merged.Delivered)
	}
	if b.Duplicates() != 0 {
		t.Fatalf("backend saw %d duplicate uploads", b.Duplicates())
	}
	// Exactly-once and lossless: everything the sink heard is uplinked.
	if b.Distinct() != atSink {
		t.Fatalf("backend has %d readings, sink delivered %d", b.Distinct(), atSink)
	}
	if float64(b.Distinct()) < 0.99*float64(atSink) {
		t.Fatalf("delivery ratio below 99%%: %d/%d", b.Distinct(), atSink)
	}
	if got := g.Metrics().Counter("gw.uplink.readings").Value(); got != uint64(atSink) {
		t.Fatalf("gw.uplink.readings=%d, want %d", got, atSink)
	}
}

// TestSimPartitionHealWithOutage exercises the two failure domains
// together: a backend outage makes the spool absorb readings (growth,
// backoff, breaker all observable), and a mesh partition of the sink
// stops new arrivals; after Heal and backend recovery every reading that
// reached the sink is uplinked exactly once.
func TestSimPartitionHealWithOutage(t *testing.T) {
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	sim := simChain(t, 4, 2)
	g := simGateway(t, srv.URL, "")
	if err := AttachSim(sim, 0, g); err != nil {
		t.Fatal(err)
	}
	reg := g.Metrics()

	b.SetFailing(true)
	for i := 1; i < sim.N(); i++ {
		if _, err := sim.StartFlow(netsim.Flow{
			From: i, To: 0, Payload: 12, Interval: 20 * time.Second, Count: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Outage phase: readings reach the sink but not the backend, so the
	// spool grows and the uplinker backs off until the breaker opens.
	sim.Run(2 * time.Minute)
	grown := g.Pending()
	if grown == 0 {
		t.Fatal("spool did not grow during backend outage")
	}
	if reg.Counter("gw.uplink.failures").Value() == 0 {
		t.Fatal("no failed uplink attempts recorded during outage")
	}
	if reg.Counter("gw.breaker.opened").Value() == 0 {
		t.Fatal("breaker never opened during sustained outage")
	}

	// Partition the sink away mid-outage: no new readings arrive, the
	// spooled backlog must survive untouched.
	rest := make([]int, 0, sim.N()-1)
	for i := 1; i < sim.N(); i++ {
		rest = append(rest, i)
	}
	if err := sim.Partition([]int{0}, rest); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Minute)
	if g.Pending() < grown {
		t.Fatalf("spool shrank during outage: %d -> %d", grown, g.Pending())
	}

	// Heal the mesh and the backend; the remaining traffic flows and the
	// whole backlog drains with zero loss and zero duplicates.
	if err := sim.Heal([]int{0}, rest); err != nil {
		t.Fatal(err)
	}
	b.SetFailing(false)
	sim.Run(5 * time.Minute)
	drain(t, sim, g)

	atSink := len(sim.Handle(0).Msgs)
	if atSink == 0 {
		t.Fatal("no readings reached the sink at all")
	}
	if b.Distinct() != atSink || b.Duplicates() != 0 {
		t.Fatalf("after heal: backend %d/%d dupes=%d, want lossless exactly-once",
			b.Distinct(), atSink, b.Duplicates())
	}
}

// TestSimRestartReplay models a gateway process restart inside the
// simulation: the first gateway spools under a backend outage and is
// detached and closed; a successor on the same WAL replays and uplinks
// everything exactly once.
func TestSimRestartReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "uplink.wal")
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	sim := simChain(t, 3, 3)
	g1 := simGateway(t, srv.URL, path)
	if err := AttachSim(sim, 0, g1); err != nil {
		t.Fatal(err)
	}

	b.SetFailing(true)
	for i := 1; i < sim.N(); i++ {
		if _, err := sim.StartFlow(netsim.Flow{
			From: i, To: 0, Payload: 12, Interval: 15 * time.Second, Count: 5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the workload finish so no deliveries land in the attachment gap.
	sim.Run(4 * time.Minute)
	atSink := len(sim.Handle(0).Msgs)
	if atSink == 0 || g1.Pending() != atSink {
		t.Fatalf("outage phase: sink=%d pending=%d, want equal and nonzero", atSink, g1.Pending())
	}

	// "Process restart": stop the first gateway, bring up a successor on
	// the same spool file.
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	b.SetFailing(false)
	g2 := simGateway(t, srv.URL, path)
	if g2.Pending() != atSink {
		t.Fatalf("successor replayed %d, want %d", g2.Pending(), atSink)
	}
	if err := AttachSim(sim, 0, g2); err != nil {
		t.Fatal(err)
	}
	drain(t, sim, g2)

	if b.Distinct() != atSink || b.Duplicates() != 0 {
		t.Fatalf("after restart: backend %d/%d dupes=%d", b.Distinct(), atSink, b.Duplicates())
	}
}

// TestSimRekeyRollout provisions a new network key over the air: the
// backend queues rekey downlinks farthest-first, each rides a reliable
// stream out of the gateway node, and the gateway's own link rotates
// host-side last. Telemetry keeps flowing across the rollout — receivers
// hold the previous key live, so the mesh never partitions — and the
// backend ends with exactly-once delivery of readings sealed under both
// keys.
func TestSimRekeyRollout(t *testing.T) {
	oldKey := meshsec.Key{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}
	newKey := meshsec.Key{
		0x60, 0x3d, 0xeb, 0x10, 0x15, 0xca, 0x71, 0xbe,
		0x2b, 0x73, 0xae, 0xf0, 0x85, 0x7d, 0x77, 0x81,
	}

	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	sim := simChainKeyed(t, 3, 5, &oldKey)
	g := simGateway(t, srv.URL, "")
	if err := AttachSim(sim, 0, g); err != nil {
		t.Fatal(err)
	}

	// Telemetry spanning the whole rollout: the uplink batches it
	// produces are also what carries the rekey downlinks back out.
	for i := 1; i < sim.N(); i++ {
		if _, err := sim.StartFlow(netsim.Flow{
			From: i, To: 0, Payload: 12, Interval: 15 * time.Second, Count: 30,
			Poisson: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(time.Minute)

	// Farthest-first: each rekey command crosses only forwarders still on
	// the old key, so it authenticates hop by hop on its way out.
	for i := sim.N() - 1; i >= 1; i-- {
		b.PushDownlink(Downlink{To: sim.Handle(i).Addr, Command: &control.Command{Op: control.OpRekey, Key: newKey}})
		h := sim.Handle(i)
		if _, ok := sim.RunUntil(func() bool { return h.Sec.NetKey() == newKey },
			10*time.Second, 20*time.Minute); !ok {
			t.Fatalf("node %v never applied the rekey", h.Addr)
		}
	}
	// The gateway node is the key source; its link rotates host-side.
	sim.Handle(0).Sec.Rotate(newKey)
	preRotate := b.Distinct()

	sim.Run(6 * time.Minute) // remaining sends finish on the new key
	drain(t, sim, g)

	for i := 0; i < sim.N(); i++ {
		if got := sim.Handle(i).Sec.NetKey(); got != newKey {
			t.Errorf("node %v still on key %v after rollout", sim.Handle(i).Addr, got)
		}
	}
	snap := sim.AggregateMetrics().Snapshot()
	if snap["total.sec.rekey.applied"] < float64(sim.N()-1) {
		t.Errorf("sec.rekey.applied=%v, want >= %d", snap["total.sec.rekey.applied"], sim.N()-1)
	}
	if g.Metrics().Counter("gw.downlink.injected").Value() < uint64(sim.N()-1) {
		t.Errorf("gateway injected %d downlinks, want >= %d",
			g.Metrics().Counter("gw.downlink.injected").Value(), sim.N()-1)
	}
	atSink := len(sim.Handle(0).Msgs)
	if b.Distinct() <= preRotate {
		t.Errorf("no readings arrived after the rotation (%d before, %d after)", preRotate, b.Distinct())
	}
	if b.Distinct() != atSink || b.Duplicates() != 0 {
		t.Errorf("backend %d/%d dupes=%d, want lossless exactly-once across the rollout",
			b.Distinct(), atSink, b.Duplicates())
	}
}

// TestSimSecuredGatewayRestart restarts the gateway process on a secured
// mesh: the node's security link (and with it the monotonic frame
// counter) belongs to the node, not the gateway, so a detach/close/
// re-attach cycle must never reset it — no nonce is ever reused because
// a gateway process bounced.
func TestSimSecuredGatewayRestart(t *testing.T) {
	key := meshsec.Key{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}
	path := filepath.Join(t.TempDir(), "uplink.wal")
	b := NewBackend()
	srv := httptest.NewServer(b)
	defer srv.Close()

	sim := simChainKeyed(t, 3, 6, &key)
	g1 := simGateway(t, srv.URL, path)
	if err := AttachSim(sim, 0, g1); err != nil {
		t.Fatal(err)
	}

	b.SetFailing(true)
	for i := 1; i < sim.N(); i++ {
		if _, err := sim.StartFlow(netsim.Flow{
			From: i, To: 0, Payload: 12, Interval: 15 * time.Second, Count: 5,
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run(4 * time.Minute)
	atOutage := len(sim.Handle(0).Msgs)
	if atOutage == 0 || g1.Pending() != atOutage {
		t.Fatalf("outage phase: sink=%d pending=%d, want equal and nonzero", atOutage, g1.Pending())
	}
	counterBefore := sim.Handle(0).Sec.Counter()
	if counterBefore == 0 {
		t.Fatal("gateway node sent no secured frames before the restart")
	}

	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	b.SetFailing(false)
	g2 := simGateway(t, srv.URL, path)
	if g2.Pending() != atOutage {
		t.Fatalf("successor replayed %d, want %d", g2.Pending(), atOutage)
	}
	if err := AttachSim(sim, 0, g2); err != nil {
		t.Fatal(err)
	}
	drain(t, sim, g2)

	if got := sim.Handle(0).Sec.Counter(); got < counterBefore {
		t.Fatalf("frame counter went backwards across gateway restart: %d -> %d", counterBefore, got)
	}
	if b.Distinct() != atOutage || b.Duplicates() != 0 {
		t.Fatalf("after restart: backend %d/%d dupes=%d", b.Distinct(), atOutage, b.Duplicates())
	}
	snap := sim.AggregateMetrics().Snapshot()
	if snap["total.sec.drop.auth"]+snap["total.sec.drop.replay"] != 0 {
		t.Fatalf("benign secured run dropped frames as hostile: auth=%v replay=%v",
			snap["total.sec.drop.auth"], snap["total.sec.drop.replay"])
	}
}
