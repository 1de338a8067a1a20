package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/control"
	"repro/internal/forward"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/trace"
)

// RxInfo carries link-quality measurements for a received frame. It is
// an alias for the strategy API's type (see internal/forward), so every
// engine shares one signature.
type RxInfo = forward.RxInfo

// HandleFrame processes one frame received from the radio.
func (n *Node) HandleFrame(frame []byte, info RxInfo) {
	if n.stopped {
		return
	}
	// rx.frames counts every frame the radio handed us — including ones
	// that fail to parse — so medium-delivered and engine-received frame
	// counts reconcile exactly (netsim's invariant audit depends on it).
	n.ins.rxFrames.Inc()
	p := &n.rx
	if err := packet.UnmarshalInto(p, frame); err != nil {
		n.ins.rxCorrupt.Inc()
		return
	}
	n.ins.rxType.get(n.reg, "rx.type.", p.Type).Inc()
	if p.Src == n.cfg.Address {
		// Our own packet echoed back through a loop; never process.
		n.ins.rxOwnEcho.Inc()
		return
	}
	if n.sec != nil && !p.Secured {
		// A secured mesh treats every plaintext frame as unauthenticated,
		// whatever its type — this is the drop that keeps forged legacy
		// HELLOs out of the routing table.
		n.dropAs(n.ins.secDropLegacy, p, "plaintext", "drop: plaintext %v from %v on secured mesh", p.Type, p.Src)
		return
	}
	if n.sec == nil && p.Secured {
		// Without key material the ciphertext is indistinguishable from
		// noise; account it with other unparseable traffic.
		n.ins.rxCorrupt.Inc()
		return
	}

	if p.Type == packet.TypeHello {
		// Authenticate before the table sees it: a HELLO that fails the
		// MIC or replay check must never influence routing.
		if n.sec != nil && !n.secOpen(p) {
			return
		}
		n.handleHello(p, info)
		return
	}
	if p.Type == packet.TypeSlotBeacon {
		// Strategy control beacon (link-local broadcast, no via): hand it
		// to the strategy layered on this engine, if any. Must run before
		// the overheard filter — non-routed frames carry Via 0.
		if n.sec != nil && !n.secOpen(p) {
			return
		}
		if n.cfg.OnBeacon != nil {
			n.cfg.OnBeacon(p, info)
		}
		return
	}

	// Routed packet: only the addressed next hop handles it; everyone
	// else merely overhears. The overheard filter must run BEFORE the
	// replay window — an overheard copy and its later legitimate forward
	// carry the same origin counter, and admitting the former would make
	// the latter look like a replay.
	if p.Via != n.cfg.Address && p.Via != packet.Broadcast {
		n.ins.rxOverheard.Inc()
		return
	}
	if n.sec != nil && !n.secOpen(p) {
		return
	}
	n.received(p, info)
	if p.Dst == n.cfg.Address {
		n.consume(p)
		return
	}
	if p.Dst == packet.Broadcast {
		// Single-hop broadcast datagram: deliver locally, never forward
		// (flooding is the baseline protocol, not LoRaMesher).
		if p.Type == packet.TypeData {
			n.deliverData(p)
		}
		return
	}
	n.forward(p)
}

// secOpen verifies and decrypts a secured frame in place, reporting
// whether processing may continue. Failures are accounted under the
// sec.drop.* counters the chaos suite asserts on.
func (n *Node) secOpen(p *packet.Packet) bool {
	err := n.sec.Open(p)
	n.secStatTick++
	if n.secStatTick&31 == 0 {
		n.refreshSecGauges()
	}
	if err == nil {
		n.ins.secOpened.Inc()
		return true
	}
	if errors.Is(err, meshsec.ErrReplay) {
		n.dropAs(n.ins.secDropReplay, p, "replay", "drop: replayed %v from %v (ctr=%d)", p.Type, p.Src, p.Counter)
	} else {
		n.dropAs(n.ins.secDropAuth, p, "auth", "drop: auth failed for %v from %v", p.Type, p.Src)
	}
	return false
}

// maxPayloadFor is packet.MaxPayload adjusted for this node's security
// mode: sealing a frame costs SecOverhead bytes of payload capacity.
func (n *Node) maxPayloadFor(t packet.Type) int {
	m := packet.MaxPayload(t)
	if n.sec != nil {
		m -= packet.SecOverhead
	}
	return m
}

// deliver hands a message to the application, except for control-plane
// commands (gateway downlink reconfiguration, recovery playbooks, key
// rotation), which the node applies to itself and answers with a report
// instead.
func (n *Node) deliver(msg AppMessage) {
	if cmd, ok := control.ParseCommand(msg.Payload); ok {
		n.handleControl(cmd, msg.From)
		return
	}
	n.env.Deliver(msg)
}

// handleHello folds a received routing beacon into the table.
func (n *Node) handleHello(p *packet.Packet, info RxInfo) {
	// The sender's own role rides on its metric-0 self entry when
	// present; the prototype simply advertises RoleDefault otherwise.
	entries, role, err := packet.AppendHello(n.helloRows[:0], p.Payload, p.Src)
	if err != nil {
		n.ins.rxCorrupt.Inc()
		return
	}
	n.helloRows = entries
	if n.table.ApplyHello(n.env.Now(), p.Src, role, info.SNRDB, entries) {
		n.ins.routesUpdated.Inc()
	}
	n.ins.routesCount.Set(float64(n.table.Len()))
	n.ins.helloReceived.Inc()
}

// consume handles a routed packet addressed to this node.
func (n *Node) consume(p *packet.Packet) {
	switch p.Type {
	case packet.TypeData:
		n.deliverData(p)
	case packet.TypeDataAck:
		n.handleSingle(p)
	case packet.TypeSync:
		n.handleSync(p)
	case packet.TypeXLData:
		n.handleChunk(p)
	case packet.TypeAck:
		n.handleAck(p)
	case packet.TypeLost:
		n.handleLost(p)
	default:
		n.reg.Counter("rx.corrupt").Inc()
	}
}

// deliverData hands a datagram payload to the application.
func (n *Node) deliverData(p *packet.Packet) {
	n.delivered(p)
	n.deliver(AppMessage{
		From:    p.Src,
		To:      p.Dst,
		Payload: append([]byte(nil), p.Payload...),
		Trace:   trace.TraceID(p.TraceID()),
		At:      n.env.Now(),
	})
}

// forward relays a routed packet one hop closer to its destination. The
// next-hop decision is the distance-vector table's.
func (n *Node) forward(p *packet.Packet) {
	next, ok := n.table.NextHop(p.Dst)
	if !ok {
		n.drop(p, forward.DropNoRoute, "drop: no route to %v (forwarding)", p.Dst)
		return
	}
	if n.isDuplicate(p) {
		n.drop(p, forward.DropDuplicate, "drop: duplicate within dedup horizon (loop breaker)")
		return
	}
	// The queue copies the packet, payload included, into a slot it owns,
	// so the relayed copy lives on the stack and p stays untouched.
	fwd := *p
	fwd.Via = next
	if err := n.tx.Enqueue(&fwd, 0); err != nil {
		// Metrics and the tracer already recorded the drop reason in
		// enqueue.
		return
	}
	n.forwarded(&fwd, next)
}

// dedupHorizon is how long a forwarded packet fingerprint is remembered.
const dedupHorizon = 1500 * time.Millisecond

// isDuplicate remembers routed-packet fingerprints for dedupHorizon and
// reports repeats, breaking transient routing loops (the wire format has
// no TTL). The suppressor itself lives in the strategy API (forward.Dedup)
// so every strategy shares its exact semantics.
func (n *Node) isDuplicate(p *packet.Packet) bool {
	return n.dedup.Duplicate(n.env.Now(), fingerprint(p))
}

// route prepares a routed packet from this node: it resolves the next hop
// and enqueues. dst must not be broadcast for stream types.
func (n *Node) route(p *packet.Packet) error {
	if p.Dst == packet.Broadcast {
		p.Via = packet.Broadcast
		return n.tx.Enqueue(p, 0)
	}
	next, ok := n.table.NextHop(p.Dst)
	if !ok {
		n.drop(p, forward.DropNoRoute, "drop: no route to %v (origin)", p.Dst)
		return fmt.Errorf("%w: %v", ErrNoRoute, p.Dst)
	}
	p.Via = next
	return n.tx.Enqueue(p, 0)
}

// sendControl emits a stream control packet (ACK or LOST) toward dst.
func (n *Node) sendControl(dst packet.Address, typ packet.Type, seqID uint8, number uint16) {
	p := &packet.Packet{
		Dst:    dst,
		Src:    n.cfg.Address,
		Type:   typ,
		SeqID:  seqID,
		Number: number,
	}
	if err := n.route(p); err != nil {
		n.reg.Counter("stream.control_unroutable").Inc()
	}
}

// FindByRole returns reachable nodes advertising the given role, nearest
// first. Applications use it to discover sinks or gateways without
// provisioning addresses.
func (n *Node) FindByRole(role packet.Role) []packet.Address {
	entries := n.table.ByRole(role)
	out := make([]packet.Address, len(entries))
	for i, e := range entries {
		out[i] = e.Addr
	}
	return out
}

// Send transmits an unreliable datagram to dst (or Broadcast for a
// single-hop broadcast). It fails fast when no route exists — the caller
// can retry after the mesh converges.
func (n *Node) Send(dst packet.Address, payload []byte) error {
	if n.stopped {
		return ErrStopped
	}
	if max := n.maxPayloadFor(packet.TypeData); len(payload) > max {
		return fmt.Errorf("%w: %d > %d bytes (use SendReliable for large payloads)",
			ErrTooLarge, len(payload), max)
	}
	// The transmit queue copies the payload, so payload is not retained.
	p := packet.Packet{
		Dst:     dst,
		Src:     n.cfg.Address,
		Type:    packet.TypeData,
		Payload: payload,
	}
	if n.traceOn {
		n.tracePacket(trace.KindApp, &p, "origin %d bytes -> %v", len(payload), dst)
	}
	if err := n.route(&p); err != nil {
		return err
	}
	n.ins.appSent.Inc()
	return nil
}
