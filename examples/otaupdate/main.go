// OTA update: push a firmware image to a far node across the mesh with the
// reliable large-payload transport (SYNC / XL_DATA / ACK / LOST). The
// image is orders of magnitude larger than one LoRa frame, so it is
// chunked, acknowledged, and retransmitted hop by hop across a lossy
// channel — the stress case for LoRaMesher's transport.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/loramesher"
	"repro/lorasim"
)

// The image size, the hops between server and target, and the seed.
const (
	size = 8192
	hops = 3
	seed = 3
)

func main() {
	loss := flag.Float64("loss", 0.05, "injected per-link frame loss rate")
	flag.Parse()
	if err := run(*loss); err != nil {
		log.SetFlags(0)
		log.Fatalf("otaupdate: %v", err)
	}
}

func run(loss float64) error {
	topo, err := lorasim.LineTopology(hops+1, 8000)
	if err != nil {
		return err
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     seed,
		Medium:   lorasim.ChannelConfig{ExtraFrameLossRate: loss},
		Node: loramesher.Config{
			HelloPeriod: time.Minute,
			StreamRetry: 20 * time.Second,
			// OTA images are long transfers; give the stream more
			// retry budget than the interactive default.
			StreamMaxRetries: 10,
		},
	})
	if err != nil {
		return err
	}
	server, target := sim.Handle(0), sim.Handle(hops)
	fmt.Printf("ota: pushing %d B firmware from %v to %v over %d hops, %.0f%% link loss\n",
		size, server.Addr, target.Addr, hops, loss*100)

	if _, ok := lorasim.RunUntilConverged(sim, time.Second, time.Hour); !ok {
		return fmt.Errorf("mesh did not converge")
	}

	image := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(image)

	var ev *loramesher.StreamEvent
	server.OnStreamDone = func(e loramesher.StreamEvent) { ev = &e }
	var got [][]byte
	target.OnMessage = func(m loramesher.Message) { got = append(got, m.Payload) }
	id, err := server.Mesher.SendReliable(target.Addr, image)
	if err != nil {
		return err
	}
	fmt.Printf("stream %d opened; transferring...\n", id)

	for tries := 0; ev == nil && tries < 240; tries++ {
		sim.Run(30 * time.Second)
	}
	if ev == nil {
		return fmt.Errorf("transfer never completed")
	}
	if ev.Err != nil {
		return fmt.Errorf("transfer failed: %w", ev.Err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], image) {
		return fmt.Errorf("image corrupted in transit")
	}

	elapsed := ev.Elapsed
	fmt.Printf("\nimage delivered intact after %v of network time\n", elapsed.Round(time.Second))
	fmt.Printf("  chunks            %d (%d B each max)\n", ev.Chunks, 244)
	fmt.Printf("  retransmissions   %d\n", ev.Retransmissions)
	fmt.Printf("  goodput           %.1f B/s\n", float64(size)/elapsed.Seconds())
	fmt.Printf("  total airtime     %v across the mesh\n", sim.TotalAirtime().Round(time.Millisecond))
	return nil
}
