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

// TestSimHeapFlatInRunLength is the run-length fence: a delivery goes to
// the callback and the simulation keeps nothing of it. On mesh_secure's
// shape (8×8 secured grid at 6 km, 5 min HELLO, 25 min EntryTTL, every
// node reporting to the centre sink every ~5 min) the live heap of a 20 h
// run may exceed a 5 h run's by at most 64 B per extra delivery; a node
// that kept each delivery and its payload grows by ~120 B. The generator
// is test-local because StartFlow's latencies are the caller's record and
// grow by design.
func TestSimHeapFlatInRunLength(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 25 h of a 64-node mesh")
	}
	const side, perDelivery = 8, 64.0
	run := func(d time.Duration) (heap uint64, delivered int) {
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
		return ms.HeapAlloc, delivered
	}
	shortHeap, shortN := run(5 * time.Hour)
	longHeap, longN := run(20 * time.Hour)
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
