// Package reactive implements an AODV-style on-demand routing protocol as
// the second comparison baseline. Where LoRaMesher (proactive) pays a
// constant beacon overhead to know every route in advance, a reactive
// protocol keeps silent until an application sends: the first datagram
// triggers a route-request flood (RREQ), the destination answers with a
// route reply (RREP) that walks the reverse path home, and only then does
// data flow — the classic overhead-versus-first-packet-latency trade the
// mesh-routing literature measures (experiment X6).
//
// The implementation is deliberately AODV-lite: hop-count metric, no
// sequence-number freshness machinery, no intermediate-node replies, and
// expiry-based route invalidation — the same simplicity level as the
// LoRaMesher prototype it is compared against. It reuses the LoRaMesher
// wire header (TypeRouteRequest / TypeRouteReply) so both protocols run
// on identical substrates.
package reactive

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Errors returned by the API.
var (
	ErrStopped     = errors.New("reactive: node is stopped")
	ErrTooLarge    = errors.New("reactive: payload too large")
	ErrPendingFull = errors.New("reactive: too many datagrams awaiting route discovery")
)

// Bounds every program runs at one value (DESIGN.md's options policy).
const (
	// discoveryTimeout is how long the originator waits for an RREP
	// before re-flooding.
	discoveryTimeout = 15 * time.Second
	// routeTTL is how long an unused route stays valid; every use
	// refreshes it.
	routeTTL = 5 * time.Minute
	// maxDiscoveryRetries bounds re-floods before pending traffic is
	// dropped.
	maxDiscoveryRetries = 3
	// maxHops bounds RREQ propagation.
	maxHops = 16
	// pendingCapacity bounds datagrams buffered per destination during
	// discovery.
	pendingCapacity = 8
	// rebroadcastDelay is the mean randomized hold-off before relaying an
	// RREQ, desynchronizing the flood.
	rebroadcastDelay = 300 * time.Millisecond
)

// routeEntry is one on-demand route.
type routeEntry struct {
	next    packet.Address
	hops    uint8
	expires time.Time
}

// reqKey identifies a discovery flood network-wide.
type reqKey struct {
	origin packet.Address
	id     uint16
}

// discovery tracks an in-progress route search this node originated.
type discovery struct {
	target  packet.Address
	id      uint16
	retries int
	cancel  func()
}

// Node is one reactive protocol engine, host-driven exactly like
// core.Node and baseline.Node.
type Node struct {
	addr    packet.Address
	env     core.Env
	reg     *metrics.Registry
	stopped bool

	routes      map[packet.Address]routeEntry
	seen        forward.SeenSet[reqKey]
	nextReqID   uint16
	discoveries map[packet.Address]*discovery
	pending     map[packet.Address][][]byte

	tx *core.Transmitter
}

// NewNode creates a reactive node on env. Of cfg, the node template, it
// reads the address and what its transmit path reads (see
// core.NewTransmitter).
func NewNode(cfg core.Config, env core.Env) (*Node, error) {
	reg := metrics.NewRegistry()
	tx, err := core.NewTransmitter(cfg, env, reg)
	if err != nil {
		return nil, fmt.Errorf("reactive: %w", err)
	}
	return &Node{
		addr:        cfg.Address,
		env:         env,
		reg:         reg,
		routes:      make(map[packet.Address]routeEntry),
		seen:        forward.SeenSet[reqKey]{Cap: 512},
		discoveries: make(map[packet.Address]*discovery),
		pending:     make(map[packet.Address][][]byte),
		tx:          tx,
	}, nil
}

// Metrics exposes the node's instruments.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Start is a no-op: a reactive protocol is silent until traffic appears.
func (n *Node) Start() error {
	if n.stopped {
		return ErrStopped
	}
	return nil
}

// Stop silences the node and abandons pending discoveries.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.tx.Stop()
	for _, d := range n.discoveries {
		if d.cancel != nil {
			d.cancel()
		}
	}
}

// Send transmits a datagram toward dst, triggering route discovery when no
// fresh route exists. Unlike the proactive engine, a missing route is not
// an error: the payload is buffered until discovery succeeds or exhausts
// its retries (then silently dropped and counted, as datagram semantics
// allow). A full transmit queue refuses a datagram with core.ErrQueueFull.
func (n *Node) Send(dst packet.Address, payload []byte) error {
	if n.stopped {
		return ErrStopped
	}
	if len(payload) > packet.MaxPayload(packet.TypeData) {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	via := packet.Broadcast
	if dst != packet.Broadcast {
		r, ok := n.freshRoute(dst)
		if !ok {
			return n.await(dst, payload)
		}
		via = r.next
	}
	if err := n.sendData(dst, via, payload); err != nil {
		return err
	}
	n.reg.Counter("app.sent").Inc()
	return nil
}

// await buffers a datagram for dst until route discovery ends, starting
// one if none is under way.
func (n *Node) await(dst packet.Address, payload []byte) error {
	if len(n.pending[dst]) >= pendingCapacity {
		n.reg.Counter("drop.pending_full").Inc()
		return fmt.Errorf("%w: %v", ErrPendingFull, dst)
	}
	n.reg.Counter("app.sent").Inc()
	n.pending[dst] = append(n.pending[dst], append([]byte(nil), payload...))
	if _, busy := n.discoveries[dst]; !busy {
		n.startDiscovery(dst)
	}
	return nil
}

// freshRoute returns the unexpired route for dst and refreshes its TTL on
// use (routes in active service stay alive).
func (n *Node) freshRoute(dst packet.Address) (routeEntry, bool) {
	r, ok := n.routes[dst]
	if !ok || !r.expires.After(n.env.Now()) {
		return routeEntry{}, false
	}
	r.expires = n.env.Now().Add(routeTTL)
	n.routes[dst] = r
	return r, true
}

// learnRoute installs or improves a route.
func (n *Node) learnRoute(dst, next packet.Address, hops uint8) {
	cur, ok := n.routes[dst]
	now := n.env.Now()
	if ok && cur.expires.After(now) && cur.hops < hops {
		return // keep the shorter live route
	}
	n.routes[dst] = routeEntry{next: next, hops: hops, expires: now.Add(routeTTL)}
}

// sendData enqueues a datagram this node originates.
func (n *Node) sendData(dst, via packet.Address, payload []byte) error {
	// The transmit queue copies the payload.
	return n.tx.Enqueue(&packet.Packet{
		Dst: dst, Src: n.addr, Type: packet.TypeData,
		Via: via, Payload: payload,
	}, 0)
}

// startDiscovery floods an RREQ for dst and arms the retry timer.
func (n *Node) startDiscovery(dst packet.Address) {
	id := n.nextReqID
	n.nextReqID++
	d := &discovery{target: dst, id: id}
	n.discoveries[dst] = d
	n.seen.Remember(reqKey{origin: n.addr, id: id})
	n.floodRReq(dst, id, 0, n.addr)
	n.reg.Counter("discovery.started").Inc()
	n.armDiscovery(d)
}

func (n *Node) armDiscovery(d *discovery) {
	d.cancel = n.env.Schedule(discoveryTimeout, func() { n.discoveryTimeout(d) })
}

func (n *Node) discoveryTimeout(d *discovery) {
	if n.stopped || n.discoveries[d.target] != d {
		return
	}
	d.retries++
	if d.retries > maxDiscoveryRetries {
		delete(n.discoveries, d.target)
		dropped := len(n.pending[d.target])
		delete(n.pending, d.target)
		n.reg.Counter("discovery.failed").Inc()
		n.reg.Counter("drop." + forward.DropNoRoute).Add(uint64(dropped))
		return
	}
	n.reg.Counter("discovery.retries").Inc()
	id := n.nextReqID
	n.nextReqID++
	d.id = id
	n.seen.Remember(reqKey{origin: n.addr, id: id})
	n.floodRReq(d.target, id, 0, n.addr)
	n.armDiscovery(d)
}

// floodRReq broadcasts one route request.
func (n *Node) floodRReq(target packet.Address, id uint16, hopCount uint8, prevHop packet.Address) {
	payload := packet.Breadcrumb{ID: id, Hops: hopCount, PrevHop: prevHop}.Append(nil)
	_ = n.tx.Enqueue(&packet.Packet{
		Dst: target, Src: n.addr, Type: packet.TypeRouteRequest, Payload: payload,
	}, 0) // a refusal is counted as drop.queue_full
	n.reg.Counter("rreq.sent").Inc()
}

// HandleFrame processes one received frame.
func (n *Node) HandleFrame(frame []byte, _ core.RxInfo) {
	if n.stopped {
		return
	}
	// rx.frames counts every frame the radio handed us — parse failures
	// included — so delivered and received frame counts reconcile.
	n.reg.Counter("rx.frames").Inc()
	p, err := packet.Unmarshal(frame)
	if err != nil {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	if p.Src == n.addr {
		return
	}
	switch p.Type {
	case packet.TypeRouteRequest:
		n.handleRReq(p)
	case packet.TypeRouteReply:
		if p.Via == n.addr {
			n.handleRRep(p)
		}
	case packet.TypeData:
		if p.Via == n.addr || p.Via == packet.Broadcast {
			n.handleData(p)
		}
	default:
		n.reg.Counter("rx.ignored").Inc()
	}
}

// handleRReq processes a discovery flood: learn the reverse route, answer
// if we are the target, otherwise relay.
func (n *Node) handleRReq(p *packet.Packet) {
	b, ok := breadcrumb(p)
	if !ok {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	// p.Src is the RREQ originator, not the link-layer sender: the relay
	// chain preserves it so reverse routes point at the right endpoint.
	key := reqKey{origin: p.Src, id: b.ID}
	if n.seen.Remember(key) {
		n.reg.Counter("rreq.duplicate").Inc()
		return
	}
	n.learnRoute(p.Src, b.PrevHop, b.Hops+1)

	if p.Dst == n.addr {
		// We are the destination: reply along the reverse path.
		n.sendRRep(p.Src, b.PrevHop, b.ID)
		return
	}
	if b.Hops+1 >= maxHops {
		n.reg.Counter("drop." + forward.DropTTL).Inc()
		return
	}
	// Relay after a randomized hold-off so simultaneous relays collide
	// less. The relayed request keeps the original Src (originator).
	payload := packet.Breadcrumb{ID: b.ID, Hops: b.Hops + 1, PrevHop: n.addr}.Append(nil)
	delay := time.Duration((0.5 + n.env.Rand()) * float64(rebroadcastDelay))
	_ = n.tx.Enqueue(&packet.Packet{
		Dst: p.Dst, Src: p.Src, Type: packet.TypeRouteRequest, Payload: payload,
	}, delay) // a refusal is counted as drop.queue_full
	n.reg.Counter("rreq.relayed").Inc()
}

// breadcrumb decodes an RREQ or RREP payload, which is exactly one
// breadcrumb.
func breadcrumb(p *packet.Packet) (packet.Breadcrumb, bool) {
	b, rest, err := packet.UnmarshalBreadcrumb(p.Payload)
	return b, err == nil && len(rest) == 0
}

// sendRRep originates a route reply toward the RREQ originator.
func (n *Node) sendRRep(origin, via packet.Address, id uint16) {
	payload := packet.Breadcrumb{ID: id, PrevHop: n.addr}.Append(nil)
	_ = n.tx.Enqueue(&packet.Packet{
		Dst: origin, Src: n.addr, Type: packet.TypeRouteReply,
		Via: via, Payload: payload,
	}, 0) // a refusal is counted as drop.queue_full
	n.reg.Counter("rrep.sent").Inc()
}

// handleRRep walks a reply back toward the originator, installing the
// forward route at every hop.
func (n *Node) handleRRep(p *packet.Packet) {
	b, ok := breadcrumb(p)
	if !ok {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	// p.Src is the replying destination: the forward route.
	n.learnRoute(p.Src, b.PrevHop, b.Hops+1)

	if p.Dst == n.addr {
		// Discovery complete: flush everything waiting on this route.
		if d, ok := n.discoveries[p.Src]; ok {
			if d.cancel != nil {
				d.cancel()
			}
			delete(n.discoveries, p.Src)
		}
		n.reg.Counter("discovery.succeeded").Inc()
		if r, ok := n.freshRoute(p.Src); ok {
			for _, payload := range n.pending[p.Src] {
				_ = n.sendData(p.Src, r.next, payload) // a refusal is counted as drop.queue_full
			}
		}
		delete(n.pending, p.Src)
		return
	}
	// Forward along the reverse route learned from the RREQ.
	r, ok := n.freshRoute(p.Dst)
	if !ok {
		n.reg.Counter("drop." + forward.DropNoRoute).Inc()
		return
	}
	fwd := p.Clone()
	fwd.Via = r.next
	fwd.Payload = packet.Breadcrumb{ID: b.ID, Hops: b.Hops + 1, PrevHop: n.addr}.Append(fwd.Payload[:0])
	_ = n.tx.Enqueue(fwd, 0) // a refusal is counted as drop.queue_full
	n.reg.Counter("rrep.forwarded").Inc()
}

// handleData delivers or forwards a routed datagram.
func (n *Node) handleData(p *packet.Packet) {
	if p.Dst == n.addr || p.Dst == packet.Broadcast {
		n.reg.Counter("app.delivered").Inc()
		n.env.Deliver(core.AppMessage{
			From:    p.Src,
			To:      p.Dst,
			Payload: append([]byte(nil), p.Payload...),
			At:      n.env.Now(),
		})
		return
	}
	r, ok := n.freshRoute(p.Dst)
	if !ok {
		n.reg.Counter("drop." + forward.DropNoRoute).Inc()
		return
	}
	fwd := *p // the transmit queue copies it, payload included
	fwd.Via = r.next
	_ = n.tx.Enqueue(&fwd, 0) // a refusal is counted as drop.queue_full
	n.reg.Counter("fwd.frames").Inc()
}

// HandleTxDone resumes the transmit queue.
func (n *Node) HandleTxDone() { n.tx.TxDone() }
