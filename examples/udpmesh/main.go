// udpmesh runs LoRaMesher over real UDP sockets — the mesh as an actual
// distributed system. Two modes:
//
// Demo (no flags): boots a 4-node chain on localhost inside this process,
// each node on its own UDP port, converges, and exchanges traffic:
//
//	go run ./examples/udpmesh
//
// Distributed (flags): runs ONE node; start several processes (or
// machines) and point them at each other. Peers define who "hears" whom:
//
//	go run ./examples/udpmesh -addr 0x0001 -listen :7001 -peers 127.0.0.1:7002
//	go run ./examples/udpmesh -addr 0x0002 -listen :7002 -peers 127.0.0.1:7001,127.0.0.1:7003
//	go run ./examples/udpmesh -addr 0x0003 -listen :7003 -peers 127.0.0.1:7002 -send 0x0001:hello
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/livenet"
	"repro/loramesher"
)

func main() {
	var (
		addr    = flag.String("addr", "", "this node's mesh address (hex, e.g. 0x0001); empty runs the in-process demo")
		listen  = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		peers   = flag.String("peers", "", "comma-separated peer UDP addresses")
		scale   = flag.Float64("timescale", 1, "protocol time compression")
		send    = flag.String("send", "", "optional dst:message to send reliably once routed (e.g. 0x0001:hello)")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics and /healthz on this address (e.g. 127.0.0.1:9100)")
	)
	flag.Parse()
	var err error
	if *addr == "" {
		err = demo()
	} else {
		err = single(*addr, *listen, *peers, *scale, *send, *metrics)
	}
	if err != nil {
		log.SetFlags(0)
		log.Fatalf("udpmesh: %v", err)
	}
}

func nodeConfig(a loramesher.Address) loramesher.Config {
	return loramesher.Config{
		Address:     a,
		HelloPeriod: 2 * time.Second,
		StreamRetry: 4 * time.Second,
	}
}

// demo boots a 4-node chain in-process.
func demo() error {
	const n = 4
	fmt.Printf("booting %d mesh nodes on localhost UDP ports (chain connectivity, 100x time)\n", n)
	hosts := make([]*livenet.Host, n)
	socks := make([]*livenet.UDPLink, n)
	for i := range hosts {
		sock, err := livenet.ListenUDP("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		h, err := livenet.Start(livenet.Config{
			Node:        nodeConfig(loramesher.Address(i + 1)),
			TimeScale:   100,
			Seed:        int64(i + 1),
			MetricsAddr: "127.0.0.1:0",
		}, sock)
		if err != nil {
			return err
		}
		defer h.Close()
		hosts[i], socks[i] = h, sock
		fmt.Printf("  node %v on %v (metrics http://%s/metrics)\n", h.Addr(), sock.Addr(), h.MetricsAddr())
	}
	for i := 0; i < n-1; i++ {
		if err := socks[i].AddPeer(socks[i+1].Addr().String()); err != nil {
			return err
		}
		if err := socks[i+1].AddPeer(socks[i].Addr().String()); err != nil {
			return err
		}
	}

	fmt.Println("\nwaiting for the distributed mesh to converge...")
	deadline := time.Now().Add(30 * time.Second)
	for !hosts[0].HasRoute(loramesher.Address(n)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("mesh did not converge")
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("converged: node 0001 has a route to node 0004 across two UDP-relay hops")

	if _, err := hosts[0].SendReliable(loramesher.Address(n), []byte("packets over sockets over virtual radio")); err != nil {
		return err
	}
	deadline = time.Now().Add(30 * time.Second)
	for len(hosts[0].StreamEvents()) == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("reliable transfer never finished")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if ev := hosts[0].StreamEvents()[0]; ev.Err != nil {
		return fmt.Errorf("transfer failed: %w", ev.Err)
	}
	msg := hosts[n-1].Messages()[0]
	fmt.Printf("node %v received %q from %v, end-to-end acknowledged\n",
		loramesher.Address(n), msg.Payload, msg.From)

	// Scrape node 0001's live /metrics endpoint — the same lines a
	// Prometheus server would collect.
	resp, err := http.Get("http://" + hosts[0].MetricsAddr() + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Printf("\nsample of node 0001's /metrics scrape:\n")
	shown := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "tx_frames_total") ||
			strings.HasPrefix(line, "rx_frames_total") ||
			strings.HasPrefix(line, "fwd_frames_total") ||
			strings.HasPrefix(line, "dutycycle_utilization") {
			fmt.Printf("  %s\n", line)
			shown++
		}
	}
	if shown == 0 {
		return fmt.Errorf("metrics scrape returned no counters")
	}
	fmt.Println("\nudpmesh demo OK")
	return nil
}

// single runs one distributed node until interrupted.
func single(addrHex, listen, peers string, scale float64, send, metricsAddr string) error {
	a, err := parseAddr(addrHex)
	if err != nil {
		return err
	}
	var peerList []string
	if peers != "" {
		peerList = strings.Split(peers, ",")
	}
	sock, err := livenet.ListenUDP(listen, peerList)
	if err != nil {
		return err
	}
	h, err := livenet.Start(livenet.Config{
		Node:        nodeConfig(a),
		TimeScale:   scale,
		MetricsAddr: metricsAddr,
		// /healthz then answers with the health monitor's verdict on this
		// node (blackholed routes, silence, a stuck duty budget, replays)
		// rather than with "the process responds".
		HealthInterval: 30 * time.Second,
	}, sock)
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Printf("node %v listening on %v, %d peers\n", a, sock.Addr(), len(peerList))
	if h.MetricsAddr() != "" {
		fmt.Printf("metrics on http://%s/metrics (health on /healthz)\n", h.MetricsAddr())
	}

	var sendDst loramesher.Address
	var sendMsg string
	if send != "" {
		dst, msg, ok := strings.Cut(send, ":")
		if !ok {
			return fmt.Errorf("-send wants dst:message, got %q", send)
		}
		sendDst, err = parseAddr(dst)
		if err != nil {
			return err
		}
		sendMsg = msg
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	sent := false
	seen := 0
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			return nil
		case <-ticker.C:
			for _, m := range h.Messages()[seen:] {
				fmt.Printf("⇐ %q from %v\n", m.Payload, m.From)
				seen++
			}
			if sendMsg != "" && !sent && h.HasRoute(sendDst) {
				if _, err := h.SendReliable(sendDst, []byte(sendMsg)); err == nil {
					fmt.Printf("⇒ sending %q to %v\n", sendMsg, sendDst)
					sent = true
				}
			}
		}
	}
}

func parseAddr(s string) (loramesher.Address, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 16)
	if err != nil {
		return 0, fmt.Errorf("mesh address %q: %w", s, err)
	}
	return loramesher.Address(v), nil
}
