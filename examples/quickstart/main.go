// Quickstart: the demo paper's core scene — three LoRa nodes in a line
// where the ends are out of radio range of each other. LoRaMesher forms a
// mesh: the middle node becomes a router, and the end nodes exchange data
// through it with no infrastructure.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/loramesher"
	"repro/lorasim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("quickstart: %v", err)
	}
}

// run plays the scene and writes its narration to w.
func run(w io.Writer) error {
	// Three nodes, 8 km apart: adjacent pairs hear each other, the ends
	// do not (SF7 closes at ≈13 km under the default channel model).
	topo, err := lorasim.LineTopology(3, 8000)
	if err != nil {
		return err
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     1,
		Node: loramesher.Config{
			HelloPeriod: 30 * time.Second,
		},
	})
	if err != nil {
		return err
	}
	a, b, c := sim.Handle(0), sim.Handle(1), sim.Handle(2)
	fmt.Fprintf(w, "nodes: A=%v  B=%v (router)  C=%v — 8 km spacing, SF7/BW125\n\n", a.Addr, b.Addr, c.Addr)

	fmt.Fprintln(w, "waiting for the distance-vector mesh to converge...")
	elapsed, ok := lorasim.RunUntilConverged(sim, time.Second, time.Hour)
	if !ok {
		return fmt.Errorf("mesh did not converge")
	}
	fmt.Fprintf(w, "converged after %v of network time\n\n", elapsed.Round(time.Second))

	fmt.Fprintln(w, "A's routing table:")
	for _, e := range a.Mesher.Table().Entries() {
		fmt.Fprintf(w, "  dst %v  via %v  metric %d\n", e.Addr, e.Via, e.Metric)
	}
	fmt.Fprintln(w)

	// A datagram from A to C must relay through B.
	received := 0
	c.OnMessage = func(msg loramesher.Message) {
		received++
		fmt.Fprintf(w, "C received %q from %v\n", msg.Payload, msg.From)
	}
	payload := []byte("hello from A, routed by B")
	if err := a.Proto.Send(c.Addr, payload); err != nil {
		return err
	}
	sim.Run(30 * time.Second)
	if received == 0 {
		return fmt.Errorf("C received nothing")
	}
	fmt.Fprintf(w, "B forwarded %d data frame(s) as a router\n",
		b.Proto.Metrics().Counter("fwd.frames").Value())

	// And a reliable multi-frame payload back from C to A.
	blob := make([]byte, 600)
	for i := range blob {
		blob[i] = byte(i)
	}
	var ev *loramesher.StreamEvent
	c.OnStreamDone = func(e loramesher.StreamEvent) { ev = &e }
	if _, err := c.Mesher.SendReliable(a.Addr, blob); err != nil {
		return err
	}
	sim.Run(5 * time.Minute)
	if ev == nil || ev.Err != nil {
		return fmt.Errorf("reliable transfer failed: %+v", ev)
	}
	fmt.Fprintf(w, "C→A reliable transfer: %d chunks in %v (%d retransmissions)\n",
		ev.Chunks, ev.Elapsed.Round(time.Millisecond), ev.Retransmissions)

	fmt.Fprintln(w, "\nquickstart OK")
	return nil
}
