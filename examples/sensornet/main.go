// Sensornet: the IoT workload from the paper's motivation — a field of
// battery-powered sensor nodes reporting telemetry to a sink over the
// mesh, with no LoRaWAN gateway. Far nodes reach the sink across multiple
// hops; the example reports delivery, latency, per-node routing depth, and
// EU868 duty-cycle compliance over six simulated hours.
//
// By default the sink runs the store-and-forward gateway bridge: every
// reading it hears is spooled and uplinked in batches to a local HTTP
// collector, which verifies exactly-once arrival. Pass -stdout for the
// original mesh-only report without the bridge.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/gateway"
	"repro/loramesher"
	"repro/lorasim"
)

func main() {
	nodes := flag.Int("nodes", 12, "number of sensor nodes (plus one sink)")
	hours := flag.Int("hours", 6, "simulated duration in hours")
	interval := flag.Duration("interval", 10*time.Minute, "mean telemetry interval per sensor")
	seed := flag.Int64("seed", 1, "simulation seed")
	stdout := flag.Bool("stdout", false, "mesh-only report, no gateway uplink (pre-bridge behavior)")
	flag.Parse()
	if err := run(*nodes, *hours, *interval, *seed, *stdout); err != nil {
		log.SetFlags(0)
		log.Fatalf("sensornet: %v", err)
	}
}

func run(nodes, hours int, interval time.Duration, seed int64, stdout bool) error {
	// Scatter sensors over a 25x25 km field; SF7 links close at ≈13 km,
	// so the far corners need multi-hop paths to the sink at index 0.
	topo, err := lorasim.RandomTopology(nodes+1, 25000, 25000, 12000, seed)
	if err != nil {
		return err
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     seed,
		Node: loramesher.Config{
			HelloPeriod: 2 * time.Minute,
			// EU868 g1: the 1% duty cycle is enforced (the default).
		},
		// The sink advertises its role in HELLOs; sensors discover it
		// instead of being provisioned with its address.
		NodeOverride: func(i int, cfg loramesher.Config) loramesher.Config {
			if i == 0 {
				cfg.Role = loramesher.RoleSink
			}
			return cfg
		},
	})
	if err != nil {
		return err
	}
	sink := sim.Handle(0)
	fmt.Printf("sensornet: %d sensors + sink %v on a 25x25 km field (seed %d)\n",
		nodes, sink.Addr, seed)

	// The backend bridge: the sink's readings drain through a gateway
	// into a local HTTP collector (the embedded backend over a real
	// socket), unless -stdout asks for the mesh-only view.
	var collector *gateway.Backend
	var gw *gateway.Gateway
	if !stdout {
		collector = gateway.NewBackend()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: collector}
		go srv.Serve(lis)
		defer srv.Close()
		url := "http://" + lis.Addr().String() + "/uplink"
		gw, err = gateway.New(gateway.Config{
			URLs:          []string{url},
			BatchSize:     16,
			FlushInterval: time.Minute,
			RetryBase:     10 * time.Second,
			RetryMax:      time.Minute,
		})
		if err != nil {
			return err
		}
		defer gw.Close()
		if err := gateway.AttachSim(sim, 0, gw); err != nil {
			return err
		}
		fmt.Printf("gateway bridge on the sink, uplinking to %s\n", url)
	}

	conv, ok := lorasim.RunUntilConverged(sim, 10*time.Second, 4*time.Hour)
	if !ok {
		return fmt.Errorf("mesh did not converge")
	}
	fmt.Printf("mesh converged in %v\n", conv.Round(time.Second))

	// Every sensor can now discover the sink by role — no provisioning.
	discovered := 0
	for i := 1; i <= nodes; i++ {
		if sinks := sim.Handle(i).Mesher.FindByRole(loramesher.RoleSink); len(sinks) == 1 && sinks[0] == sink.Addr {
			discovered++
		}
	}
	fmt.Printf("%d/%d sensors discovered the sink by its advertised role\n\n", discovered, nodes)

	stats, err := sim.StartManyToOne(24, interval)
	if err != nil {
		return err
	}
	sim.Run(time.Duration(hours) * time.Hour)

	total := lorasim.MergeStats(stats)
	fmt.Printf("after %d h of telemetry every ~%v per sensor:\n", hours, interval)
	fmt.Printf("  offered    %5d readings\n", total.Offered)
	fmt.Printf("  delivered  %5d (PDR %.1f%%)\n", total.Delivered, 100*total.DeliveryRatio())
	fmt.Printf("  mean latency %v\n\n", total.MeanLatency().Round(time.Millisecond))

	fmt.Println("per-sensor view (hops = routing metric at the sensor):")
	fmt.Println("  node   hops  sent  delivered  airtime     duty-cycle")
	budget := 36 * time.Second // 1% of an hour
	violations := 0
	for i := 1; i <= nodes; i++ {
		h := sim.Handle(i)
		hops := "-"
		if e, ok := h.Mesher.Table().Lookup(sink.Addr); ok {
			hops = fmt.Sprintf("%d", e.Metric)
		}
		st := stats[i]
		air := h.Mesher.AirtimeUsed()
		perHour := air / time.Duration(hours)
		duty := float64(perHour) / float64(time.Hour)
		if perHour > budget {
			violations++
		}
		fmt.Printf("  %v   %3s  %4d  %9d  %-10v  %.3f%%\n",
			h.Addr, hops, st.Offered, st.Delivered, air.Round(time.Millisecond), 100*duty)
	}
	if violations == 0 {
		fmt.Printf("\nall nodes within the EU868 1%% duty-cycle budget (≤%v airtime/hour)\n", budget)
	} else {
		fmt.Printf("\nWARNING: %d nodes exceeded the hourly duty-cycle budget\n", violations)
	}

	if gw != nil {
		// Let the last flush window elapse so trailing readings depart.
		if _, ok := sim.RunUntil(func() bool { return gw.Pending() == 0 },
			30*time.Second, time.Hour); !ok {
			return fmt.Errorf("gateway spool never drained (pending %d)", gw.Pending())
		}
		reg := gw.Metrics()
		fmt.Printf("\ncollector received %d readings in %d batches (%d duplicates)\n",
			collector.Distinct(), collector.Batches(), collector.Duplicates())
		age := reg.Histogram("gw.uplink.age_ms")
		fmt.Printf("uplink batch rtt p95 %v; reading age at uplink mean %v\n",
			time.Duration(reg.Histogram("gw.uplink.rtt_ms").Quantile(0.95))*time.Millisecond,
			(time.Duration(age.Mean()) * time.Millisecond).Round(time.Second))
		if collector.Distinct() == len(sink.Msgs) && collector.Duplicates() == 0 {
			fmt.Println("every reading the sink heard reached the collector exactly once")
		}
	}
	return nil
}
