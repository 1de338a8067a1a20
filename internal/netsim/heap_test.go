package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/routing"
)

// securedMeshHeap runs mesh_secure's shape (8×8 secured grid at 6 km,
// 5 min HELLO, 25 min EntryTTL, every node reporting to the centre sink
// every ~5 min) for d and returns the live heap with the simulation still
// reachable, and the deliveries. The generator is test-local because
// StartFlow's latencies are the caller's record and grow by design.
func securedMeshHeap(t *testing.T, d time.Duration) (heap uint64, nodes, delivered int) {
	const side = 8
	topo, err := geo.Grid(side, side, 6000)
	if err != nil {
		t.Fatal(err)
	}
	key := secTestKey
	sim, err := New(Config{Topology: topo, Seed: 1, SecKey: &key, Node: core.Config{
		HelloPeriod: 5 * time.Minute,
		Routing:     routing.Config{EntryTTL: 25 * time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	sink := sim.Handle((side/2)*side + side/2)
	sink.OnMessage = func(core.AppMessage) { delivered++ }
	rng := rand.New(rand.NewSource(1))
	gap := func() time.Duration {
		return time.Duration(float64(5*time.Minute) * math.Max(-math.Log(1-rng.Float64()), 1e-3))
	}
	for i := 0; i < sim.N(); i++ {
		h := sim.Handle(i)
		if h == sink {
			continue
		}
		var send func()
		send = func() {
			_ = h.Proto.Send(sink.Addr, make([]byte, 24))
			sim.Sched.MustAfter(gap(), send)
		}
		sim.Sched.MustAfter(gap(), send)
	}
	sim.Run(d)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sim)
	return ms.HeapAlloc, sim.N(), delivered
}

// TestSimHeapFlatInRunLength is the run-length fence: a delivery goes to
// the callback and the simulation keeps nothing of it. On
// securedMeshHeap's shape the live heap of a 20 h run may exceed a 5 h
// run's by at most 16 B per extra delivery (about 1 B today); a node
// that kept each delivery and its payload grows by ~120 B.
func TestSimHeapFlatInRunLength(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 25 h of a 64-node mesh")
	}
	const perDelivery = 16.0
	shortHeap, _, shortN := securedMeshHeap(t, 5*time.Hour)
	longHeap, _, longN := securedMeshHeap(t, 20*time.Hour)
	if longN <= shortN {
		t.Fatalf("deliveries %d (5 h) → %d (20 h): the mesh stopped delivering", shortN, longN)
	}
	per := (float64(longHeap) - float64(shortHeap)) / float64(longN-shortN)
	t.Logf("heap %.2f → %.2f MiB over %d → %d deliveries: %.1f B per delivery",
		float64(shortHeap)/(1<<20), float64(longHeap)/(1<<20), shortN, longN, per)
	if per > perDelivery {
		t.Errorf("live heap grows %.1f B per delivery, want ≤ %.0f: something keeps a record of the run", per, perDelivery)
	}
}

// TestSecuredNodeBytes is the per-node fence: after 20 h of
// securedMeshHeap's shape the whole live heap, divided by the nodes, is
// at most 30 KiB (about 26 KB today). A node's sessions are shared per
// medium, its histograms hold the buckets they hit, its per-type
// counters the types it sees, and its dedup table the fingerprints
// within the horizon; per-type tables indexed by the type byte alone
// cost 4 KB a node, and a wall-clock timing histogram grows with the
// machine's load. The bound includes Go maps, whose sizes depend on the
// toolchain.
func TestSecuredNodeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 20 h of a 64-node mesh")
	}
	const maxPerNode = 30 << 10
	heap, nodes, _ := securedMeshHeap(t, 20*time.Hour)
	per := float64(heap) / float64(nodes)
	t.Logf("live heap %.2f MiB over %d nodes: %.1f KB a node", float64(heap)/(1<<20), nodes, per/1000)
	if per > maxPerNode {
		t.Errorf("live heap %.1f KB a node, want at most %.1f KB", per/1000, float64(maxPerNode)/1000)
	}
}
