package livenet

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Net is the in-memory hub: a concurrent medium shared by the hosts of
// one process, plus the mesh-wide view of them (aggregated metrics, and
// the all-tables health source that loop detection needs).
type Net struct {
	cfg     Config
	connect func(from, to packet.Address) bool
	clock   clock
	obs     *observer

	mu     sync.Mutex
	nodes  []*Host
	closed bool

	// onAir counts in-flight transmissions for carrier sense.
	onAir atomic.Int64
}

// New creates an empty hub whose hosts run cfg (Node.Address is assigned
// per AddNode). connect decides whether a frame transmitted by from
// reaches to; nil means full connectivity. It must be safe for concurrent
// use.
func New(cfg Config, connect func(from, to packet.Address) bool) (*Net, error) {
	clk, err := newClock(cfg.TimeScale)
	if err != nil {
		return nil, err
	}
	n := &Net{cfg: cfg, connect: connect, clock: clk}
	if n.obs, err = observe(cfg, clk, n); err != nil {
		return nil, err
	}
	return n, nil
}

// AddNode creates, registers, and starts a host with the given address.
func (n *Net) AddNode(addr packet.Address) (*Host, error) {
	cfg := n.cfg
	cfg.Node.Address = addr
	// The hub observes the whole mesh; its hosts carry no listener or
	// monitor of their own.
	cfg.MetricsAddr, cfg.HealthInterval = "", 0
	return start(cfg, n.clock, &port{hub: n})
}

// Close stops every host and waits for their loops to drain.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	n.obs.close()
	for _, h := range n.hosts() {
		h.Close()
	}
}

// Health returns the mesh health monitor, or nil when disabled.
func (n *Net) Health() *health.Monitor { return n.obs.health }

// MetricsAddr returns the metrics listener's address ("" when disabled).
func (n *Net) MetricsAddr() string { return n.obs.addr() }

// AggregateMetrics merges every node's registry under "node.<addr>." plus
// network-wide totals under "mesh.", and the health.* instruments when
// the monitor runs.
func (n *Net) AggregateMetrics() *metrics.Registry { return n.obs.metrics() }

// hosts returns a snapshot of the joined hosts.
func (n *Net) hosts() []*Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.nodes)
}

func (n *Net) export() *metrics.Registry {
	agg := metrics.NewRegistry()
	for _, h := range n.hosts() {
		reg := h.node.Metrics()
		agg.Merge(fmt.Sprintf("node.%v.", h.addr), reg)
		agg.Merge("mesh.", reg)
	}
	return agg
}

func (n *Net) describe(v map[string]any) {
	v["nodes"] = len(n.hosts())
	v["timescale"] = n.clock.scale
}

// port is one host's attachment to the hub: its Link.
type port struct {
	hub  *Net
	host *Host
}

// Listen joins the hub: from here on the host hears every connected
// transmission. Joining is where a duplicate address or a closed hub is
// refused, under the same lock that publishes the host.
func (p *port) Listen(h *Host) error {
	n := p.hub
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("livenet: network is closed")
	}
	for _, q := range n.nodes {
		if q.addr == h.addr {
			return fmt.Errorf("livenet: duplicate address %v", h.addr)
		}
	}
	p.host = h
	n.nodes = append(n.nodes, h)
	return nil
}

// Send holds the channel for the frame's airtime, then hands the frame to
// every connected host.
func (p *port) Send(frame []byte, airtime time.Duration, done func()) {
	n := p.hub
	n.onAir.Add(1)
	time.AfterFunc(airtime, func() {
		n.onAir.Add(-1)
		for _, peer := range n.hosts() {
			if peer == p.host {
				continue
			}
			if n.connect != nil && !n.connect(p.host.addr, peer.addr) {
				continue
			}
			peer.Receive(frame)
		}
		done()
	})
}

// Busy reports carrier from the hub-wide on-air count.
func (p *port) Busy() bool { return p.hub.onAir.Load() > 0 }

// Close leaves the hub.
func (p *port) Close() {
	n := p.hub
	n.mu.Lock()
	defer n.mu.Unlock()
	if i := slices.Index(n.nodes, p.host); i >= 0 {
		n.nodes = slices.Delete(n.nodes, i, i+1)
	}
}
