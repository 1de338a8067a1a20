package lorasim_test

import (
	"fmt"
	"time"

	"repro/loramesher"
	"repro/lorasim"
)

// Example builds the demo paper's scene: three nodes in a line where the
// ends only reach each other through the router in the middle.
func Example() {
	topo, err := lorasim.LineTopology(3, 8000)
	if err != nil {
		panic(err)
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     1,
		Node:     loramesher.Config{HelloPeriod: 30 * time.Second},
	})
	if err != nil {
		panic(err)
	}
	if _, ok := lorasim.RunUntilConverged(sim, time.Second, time.Hour); !ok {
		panic("no convergence")
	}
	sim.Handle(2).OnMessage = func(msg loramesher.Message) {
		fmt.Printf("node %v received %q from %v\n", sim.Handle(2).Addr, msg.Payload, msg.From)
	}
	if err := sim.Handle(0).Proto.Send(sim.Handle(2).Addr, []byte("hello mesh")); err != nil {
		panic(err)
	}
	sim.Run(30 * time.Second)
	fmt.Printf("router forwarded %d frame(s)\n",
		sim.Handle(1).Proto.Metrics().Counter("fwd.frames").Value())
	// Output:
	// node 0003 received "hello mesh" from 0001
	// router forwarded 1 frame(s)
}

// ExampleSim_StartFlow measures delivery on a generated workload.
func ExampleSim_StartFlow() {
	topo, err := lorasim.LineTopology(3, 8000)
	if err != nil {
		panic(err)
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     2,
		Node:     loramesher.Config{HelloPeriod: 30 * time.Second},
	})
	if err != nil {
		panic(err)
	}
	if _, ok := lorasim.RunUntilConverged(sim, time.Second, time.Hour); !ok {
		panic("no convergence")
	}
	stats, err := sim.StartFlow(lorasim.Flow{
		From: 0, To: 2, Payload: 24, Interval: 30 * time.Second, Count: 20,
	})
	if err != nil {
		panic(err)
	}
	sim.Run(15 * time.Minute)
	fmt.Printf("delivered ≥18/%d: %v\n", stats.Offered, stats.Delivered >= 18)
	// Output:
	// delivered ≥18/20: true
}

// ExampleEstimatedRange shows how spreading factor trades bit rate for
// radio range under the default channel model.
func ExampleEstimatedRange() {
	for _, sf := range []loramesher.SpreadingFactor{loramesher.SF7, loramesher.SF10} {
		phy := loramesher.DefaultPHY()
		phy.SpreadingFactor = sf
		r, err := lorasim.EstimatedRange(phy)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%v closes at ≈%.0f km\n", sf, r/1000)
	}
	// Output:
	// SF7 closes at ≈14 km
	// SF10 closes at ≈26 km
}
