// meshgw demonstrates the full store-and-forward bridge on real sockets:
// it boots an in-process UDP mesh chain, attaches a gateway to the sink
// node, and drains field telemetry into an uplink backend — the embedded
// test backend by default, or any external collector via -url.
//
// Usage examples:
//
//	meshgw                          # 4-node chain, embedded backend
//	meshgw -n 6 -count 10           # 10 readings per source, then exit
//	meshgw -url http://host:9000/up # uplink to an external backend
//	meshgw -spool gw.wal            # durable spool, survives restarts
//	meshgw -metrics 127.0.0.1:9100  # serve gateway metrics + health
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/livenet"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/routing"
)

// options collects everything a run needs; flags map onto it 1:1.
type options struct {
	n         int
	url       string
	spool     string
	flush     time.Duration
	interval  time.Duration
	count     int
	duration  time.Duration
	timescale float64
	metrics   string
	// controlFile loads a desired-state document (JSON); the gateway's
	// sink node runs the self-healing controller against it, reconciling
	// the live UDP mesh over the same downlink path readings ride up.
	controlFile string
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 4, "nodes in the chain (node 1 is the sink gateway)")
	flag.StringVar(&o.url, "url", "", "backend uplink URL (empty: start the embedded backend)")
	flag.StringVar(&o.spool, "spool", "", "WAL spool path (empty: in-memory only)")
	flag.DurationVar(&o.flush, "flush", 2*time.Second, "uplink flush interval")
	flag.DurationVar(&o.interval, "interval", time.Second, "reading interval per source node")
	flag.IntVar(&o.count, "count", 5, "readings per source (0: run for -duration)")
	flag.DurationVar(&o.duration, "duration", 30*time.Second, "run time when -count is 0; drain timeout otherwise")
	flag.Float64Var(&o.timescale, "timescale", 50, "protocol time compression")
	flag.StringVar(&o.metrics, "metrics", "", "serve gateway /metrics and /healthz on this address")
	flag.StringVar(&o.controlFile, "control", "", "reconcile the mesh toward this desired-state JSON document (controller at the sink)")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "meshgw: %v\n", err)
		os.Exit(1)
	}
}

// hello is the demo mesh's HELLO beacon period, in protocol time.
const hello = 2 * time.Second

func run(w io.Writer, o options) error {
	if o.n < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", o.n)
	}

	// Backend: embedded unless an external URL is given.
	var backend *gateway.Backend
	url := o.url
	if url == "" {
		backend = gateway.NewBackend()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: backend}
		go srv.Serve(lis)
		defer srv.Close()
		url = "http://" + lis.Addr().String() + "/uplink"
		fmt.Fprintf(w, "embedded backend listening on %s\n", url)
	}

	// The mesh: a chain of UDP hosts on localhost, adjacent peers only,
	// so traffic from the far end really multi-hops to the sink.
	hosts := make([]*livenet.Host, o.n)
	socks := make([]*livenet.UDPLink, o.n)
	for i := range hosts {
		sock, err := livenet.ListenUDP("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		h, err := livenet.Start(livenet.Config{
			Node: core.Config{
				Address:        packet.Address(i + 1),
				HelloPeriod:    hello,
				DutyCycleLimit: 1,
				Routing:        routing.Config{EntryTTL: 15 * hello},
			},
			TimeScale: o.timescale,
			Seed:      int64(i + 1),
		}, sock)
		if err != nil {
			return err
		}
		hosts[i], socks[i] = h, sock
		defer h.Close()
	}
	for i := 0; i < o.n-1; i++ {
		if err := socks[i].AddPeer(socks[i+1].Addr().String()); err != nil {
			return err
		}
		if err := socks[i+1].AddPeer(socks[i].Addr().String()); err != nil {
			return err
		}
	}
	sink := hosts[0]
	fmt.Fprintf(w, "mesh: %d-node chain, sink %v at %s\n", o.n, sink.Addr(), socks[0].Addr())

	// The gateway rides on the sink.
	g, err := gateway.New(gateway.Config{
		URLs:          []string{url},
		SpoolPath:     o.spool,
		BatchSize:     8,
		FlushInterval: o.flush,
		RetryBase:     500 * time.Millisecond,
		RetryMax:      10 * time.Second,
	})
	if err != nil {
		return err
	}
	gateway.AttachHost(sink, g)
	g.Start()
	defer g.Close()

	if o.metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(g.Metrics))
		mux.Handle("/healthz", metrics.HealthHandler(func() map[string]any {
			return map[string]any{
				"pending": g.Pending(),
				"breaker": g.BreakerOpen(),
			}
		}))
		lis, err := net.Listen("tcp", o.metrics)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(lis)
		defer srv.Close()
		fmt.Fprintf(w, "gateway metrics on http://%s/metrics\n", lis.Addr())
	}

	// Wait for routes so the first readings aren't dropped on the floor.
	deadline := time.Now().Add(o.duration)
	for {
		ok := true
		for _, h := range hosts[1:] {
			if !h.HasRoute(sink.Addr()) {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mesh did not converge within %v", o.duration)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintf(w, "mesh converged; %d sources reporting every %v\n", o.n-1, o.interval)

	// The self-healing controller rides the sink like the gateway does:
	// commands go out as ordinary downlink datagrams, and acks come back
	// as deliveries — intercepted in front of the gateway's uplink hook
	// so a control report is never spooled to the backend as telemetry.
	var ctl *control.Controller
	if o.controlFile != "" {
		desired, err := control.LoadFile(o.controlFile)
		if err != nil {
			return err
		}
		addrs := make([]packet.Address, o.n)
		for i := range addrs {
			addrs[i] = hosts[i].Addr()
		}
		ctl, err = control.New(control.Config{
			State: desired,
			Nodes: addrs,
			Self:  sink.Addr(),
			Send: func(to packet.Address, payload []byte, reliable bool) error {
				if reliable {
					_, err := sink.SendReliable(to, payload)
					return err
				}
				return sink.Send(to, payload)
			},
			Local: func(cmd control.Command) control.Report {
				var rep control.Report
				sink.Do(func(n *core.Node) { rep = n.ApplyControl(cmd) })
				return rep
			},
			// The chain's rollout distance is its hop count from the
			// sink, which address order encodes.
			Distance: func(a packet.Address) float64 { return float64(a) },
			// Wall-clock pacing: the controller is outside the mesh's
			// compressed protocol time, like a real operator's would be.
			PollInterval:  250 * time.Millisecond,
			RetryInterval: 2 * time.Second,
			Cooldown:      30 * time.Second,
		})
		if err != nil {
			return err
		}
		sink.SetOnMessage(func(m core.AppMessage) {
			if control.IsReport(m.Payload) && ctl.ObserveReport(time.Now(), m.From, m.Payload) {
				return
			}
			g.OfferMessage(m)
		})
		ctlStop := make(chan struct{})
		defer close(ctlStop)
		go func() {
			tick := time.NewTicker(ctl.PollInterval())
			defer tick.Stop()
			for {
				select {
				case <-ctlStop:
					return
				case now := <-tick.C:
					ctl.Poll(now)
				}
			}
		}()
		fmt.Fprintf(w, "controller reconciling toward %s (state version %d)\n", o.controlFile, desired.Version)
	}

	// Sources: every non-sink node emits readings toward the sink.
	stop := make(chan struct{})
	for idx, h := range hosts[1:] {
		go func(idx int, h *livenet.Host) {
			tick := time.NewTicker(o.interval)
			defer tick.Stop()
			for i := 0; o.count == 0 || i < o.count; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				payload := []byte(fmt.Sprintf("node%d reading %d", idx+1, i))
				if err := h.Send(sink.Addr(), payload); err != nil {
					fmt.Fprintf(w, "send from %v: %v\n", h.Addr(), err)
				}
			}
		}(idx, h)
	}
	defer close(stop)

	// The reverse path: queue a command for the far end of the chain; it
	// rides back in an uplink response and re-enters the mesh at the sink.
	far := hosts[o.n-1]
	var pinged atomic.Bool
	far.SetOnMessage(func(m core.AppMessage) {
		if string(m.Payload) == "downlink ping" {
			pinged.Store(true)
		}
	})
	if backend != nil {
		backend.PushDownlink(gateway.Downlink{
			To: far.Addr(), Payload: []byte("downlink ping"),
		})
	}

	// Run: either until every counted reading is uplinked, or for the
	// fixed duration.
	want := (o.n - 1) * o.count
	if o.count > 0 && backend != nil {
		for backend.Distinct() < want && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		// One more flush window so trailing partial batches depart.
		time.Sleep(o.flush + 200*time.Millisecond)
	} else {
		time.Sleep(time.Until(deadline))
	}

	// Report.
	reg := g.Metrics()
	fmt.Fprintf(w, "\ngateway: offered %d, uplinked %d readings in %d batches, %d failures, pending %d\n",
		reg.Counter("gw.offered").Value(), reg.Counter("gw.uplink.readings").Value(),
		reg.Counter("gw.uplink.batches").Value(), reg.Counter("gw.uplink.failures").Value(),
		g.Pending())
	if backend != nil {
		fmt.Fprintf(w, "backend: %d distinct readings, %d duplicates, %d batches\n",
			backend.Distinct(), backend.Duplicates(), backend.Batches())
		for _, h := range hosts[1:] {
			fmt.Fprintf(w, "  from %v: %d readings\n", h.Addr(), backend.FromAddr(h.Addr()))
		}
		if o.count > 0 && backend.Distinct() < want {
			return fmt.Errorf("only %d/%d readings uplinked before the deadline", backend.Distinct(), want)
		}
	}
	if backend != nil {
		fmt.Fprintf(w, "downlink to %v delivered: %v\n", far.Addr(), pinged.Load())
	}
	if ctl != nil {
		snap := ctl.Metrics().Snapshot()
		state := "still reconciling"
		if ctl.Converged() {
			state = "converged"
		}
		fmt.Fprintf(w, "controller: %s  commands sent %d  acks %d\n",
			state, int64(snap["ctl.commands.sent"]), int64(snap["ctl.acks.ok"]))
		for _, a := range ctl.Actions() {
			fmt.Fprintf(w, "  %s\n", a)
		}
	}
	return nil
}
