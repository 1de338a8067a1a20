package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meshsec"
)

// TestConcurrentSimsShareNothing backs the parallel sweep runner: the
// experiments package evaluates independent sweep points on worker
// goroutines, each with its own Sim but often a shared *geo.Topology.
// Under -race, any hidden shared mutable state between Sims (package-level
// maps written at runtime, topology mutation inside New, shared RNGs)
// surfaces here. The deterministic-output check doubles as a value-level
// guard where the race detector is not running. The secured run covers the
// meshsec.Memo each Sim shares among its own Links.
func TestConcurrentSimsShareNothing(t *testing.T) {
	t.Run("plain", func(t *testing.T) { concurrentSims(t, nil) })
	t.Run("secured", func(t *testing.T) { concurrentSims(t, &secTestKey) })
}

func concurrentSims(t *testing.T, key *meshsec.Key) {
	topo := mustLine(t, 5, 8000)
	const sims = 4
	results := make([]string, sims)
	var wg sync.WaitGroup
	wg.Add(sims)
	for w := 0; w < sims; w++ {
		go func(w int) {
			defer wg.Done()
			sim, err := New(Config{Topology: topo, Node: fastNode(), Seed: 1, SecKey: key})
			if err != nil {
				t.Errorf("sim %d: %v", w, err)
				return
			}
			d, ok := sim.TimeToConvergence(time.Second, 10*time.Minute)
			if !ok {
				t.Errorf("sim %d: no convergence", w)
				return
			}
			dst := collect(sim.Handle(4))
			if err := sim.Handle(0).Proto.Send(sim.Handle(4).Addr, []byte("x")); err != nil {
				t.Errorf("sim %d: %v", w, err)
				return
			}
			sim.Run(time.Minute)
			results[w] = fmt.Sprintf("conv=%v delivered=%d fired=%d",
				d, len(dst.msgs), sim.Sched.Fired())
		}(w)
	}
	wg.Wait()
	for w := 1; w < sims; w++ {
		if results[w] != results[0] {
			t.Errorf("sim %d diverged: %q vs %q", w, results[w], results[0])
		}
	}
}
