package livenet

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
)

// observer is the observability a host carries when its Config asks for
// it: the /metrics + /healthz listener and the health monitor's
// polling loop. With neither configured it is inert.
type observer struct {
	host   *Host
	health *health.Monitor // nil unless Config.HealthInterval is positive
	lis    net.Listener    // nil unless Config.MetricsAddr is set
	srv    *http.Server

	stop chan struct{}
	wg   sync.WaitGroup
}

// observe starts what cfg asks for. The listener is bound before anything
// else starts, so a bad MetricsAddr fails with nothing left running.
func observe(cfg Config, h *Host) (*observer, error) {
	o := &observer{host: h, stop: make(chan struct{})}
	if cfg.HealthInterval > 0 {
		o.health = health.New(health.Config{Tracer: cfg.Node.Tracer}, o.healthSource)
	}
	if cfg.MetricsAddr != "" {
		if err := o.serveMetrics(cfg.MetricsAddr); err != nil {
			return nil, err
		}
	}
	if o.health != nil {
		o.wg.Add(1)
		go o.healthLoop(h.clock.wall(cfg.HealthInterval))
	}
	return o, nil
}

// close stops the listener and the polling loop and waits for the loop.
func (o *observer) close() {
	close(o.stop)
	if o.srv != nil {
		o.srv.Close()
	}
	o.wg.Wait()
}

// addr returns the metrics listener's address, "" when disabled.
func (o *observer) addr() string {
	if o.lis == nil {
		return ""
	}
	return o.lis.Addr().String()
}

// healthLoop polls the monitor on the (time-scaled) wall clock until the
// observer closes.
func (o *observer) healthLoop(every time.Duration) {
	defer o.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
			o.health.Poll(o.host.clock.now())
		}
	}
}

// healthSource snapshots the host for the monitor.
func (o *observer) healthSource() []health.NodeStatus {
	return []health.NodeStatus{o.host.status()}
}

// metrics is the /metrics view: the engine's registry plus, when the
// monitor runs, the health.* instruments. Registries are safe to read
// while the event loop runs, so a scrape never blocks the host.
func (o *observer) metrics() *metrics.Registry {
	reg := o.host.node.Metrics()
	if o.health == nil {
		return reg
	}
	agg := metrics.NewRegistry()
	agg.Merge("", reg)
	agg.Merge("", o.health.Metrics())
	return agg
}

// serveMetrics starts the /metrics and /healthz listener.
func (o *observer) serveMetrics(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("livenet: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(o.metrics))
	mux.Handle("/healthz", metrics.HealthHandler(func() map[string]any {
		v := map[string]any{"status": "ok"}
		if o.health != nil {
			// The monitor's verdict IS the liveness answer: a mesh with
			// loops or silent nodes is not "ok" just because the process
			// responds.
			v = o.health.Verdict()
		}
		v["mesh"] = o.host.addr.String()
		v["udp"] = o.host.link.Addr().String()
		v["uptime"] = time.Since(o.host.clock.start).String()
		return v
	}))
	o.lis = lis
	o.srv = &http.Server{Handler: mux}
	go o.srv.Serve(lis)
	return nil
}
