// Chat: two people at opposite ends of a valley exchange messages through
// a LoRa mesh — the distributed application "hosted only on tiny IoT
// nodes" the demo paper closes on. Messages use the reliable transport, so
// each side knows when a message actually arrived; the nodes in between
// are plain LoRaMesher routers.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/loramesher"
	"repro/lorasim"
)

// line is one scripted chat message.
type line struct {
	fromAlice bool
	text      string
}

var script = []line{
	{true, "anyone on the ridge? over."},
	{false, "reading you through three hops. signal is clean."},
	{true, "sending tomorrow's sensor placement map next."},
	{false, "got it. the mesh rerouted around node 3 last night, no data lost."},
	{true, "good. powering down until 06:00."},
}

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("chat: %v", err)
	}
}

func run() error {
	// A 5-node chain: Alice - r1 - r2 - r3 - Bob.
	topo, err := lorasim.LineTopology(5, 8000)
	if err != nil {
		return err
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     7,
		Node:     loramesher.Config{HelloPeriod: 30 * time.Second},
	})
	if err != nil {
		return err
	}
	alice, bob := sim.Handle(0), sim.Handle(4)
	fmt.Printf("alice=%v ... 3 routers ... bob=%v (32 km end to end)\n\n", alice.Addr, bob.Addr)

	if _, ok := lorasim.RunUntilConverged(sim, time.Second, time.Hour); !ok {
		return fmt.Errorf("mesh did not converge")
	}
	if e, ok := alice.Mesher.Table().Lookup(bob.Addr); ok {
		fmt.Printf("alice reaches bob in %d hops via %v\n\n", e.Metric, e.Via)
	}

	// Print deliveries as they happen, with virtual timestamps.
	start := sim.Now()
	show := func(who string, h *lorasim.Handle) {
		h.OnMessage = func(msg loramesher.Message) {
			fmt.Printf("[%7v] %s ⇐ %q\n",
				msg.At.Sub(start).Round(time.Millisecond), who, msg.Payload)
		}
	}
	show("bob  ", bob)
	show("alice", alice)
	var acked *loramesher.StreamEvent
	alice.OnStreamDone = func(ev loramesher.StreamEvent) { acked = &ev }
	bob.OnStreamDone = alice.OnStreamDone

	for i, l := range script {
		src, dst := alice, bob
		if !l.fromAlice {
			src, dst = bob, alice
		}
		acked = nil
		if _, err := src.Mesher.SendReliable(dst.Addr, []byte(l.text)); err != nil {
			return fmt.Errorf("message %d: %w", i, err)
		}
		// Wait for the ack'd delivery before the reply, like a real chat.
		for tries := 0; acked == nil && tries < 600; tries++ {
			sim.Run(time.Second)
		}
		if acked == nil {
			return fmt.Errorf("message %d never acknowledged", i)
		}
		if acked.Err != nil {
			return fmt.Errorf("message %d failed: %w", i, acked.Err)
		}
	}

	fmt.Printf("\n%d messages delivered and acknowledged end-to-end\n", len(script))
	relay := sim.Handle(2)
	fmt.Printf("middle router %v forwarded %d frames without ever reading a message\n",
		relay.Addr, relay.Proto.Metrics().Counter("fwd.frames").Value())
	return nil
}
