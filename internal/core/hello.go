package core

import (
	"time"

	"repro/internal/forward"
	"repro/internal/packet"
	"repro/internal/trace"
)

// helloTick broadcasts the routing table and schedules the next beacon.
func (n *Node) helloTick() {
	if n.stopped {
		return
	}
	n.sendHello()
	n.helloTimer.Reset(n.jitteredHello(n.cfg.HelloPeriod))
}

// helloJitter is the relative desynchronization jitter applied to each
// HELLO period (±20%), so beacons that start aligned drift apart.
const helloJitter = 0.2

// jitteredHello draws one beacon gap: uniform in [1-helloJitter,
// 1+helloJitter] times the period.
func (n *Node) jitteredHello(period time.Duration) time.Duration {
	return time.Duration((1 - helloJitter + 2*helloJitter*n.env.Rand()) * float64(period))
}

// sendHello enqueues the node's routing table as one or more HELLO
// broadcasts, led by a metric-0 self entry that carries the node's own
// advertised role. Tables larger than one frame are split across
// consecutive packets, mirroring how the prototype pages its table out.
func (n *Node) sendHello() {
	table := n.table.HelloEntries()
	entries := make([]packet.HelloEntry, 0, len(table)+1)
	entries = append(entries, packet.HelloEntry{
		Addr: n.cfg.Address, Metric: 0, Role: n.cfg.Role,
	})
	entries = append(entries, table...)
	// A sealed HELLO pays SecOverhead bytes of payload, so a secured mesh
	// pages its table in slightly smaller chunks.
	maxEntries := n.maxPayloadFor(packet.TypeHello) / packet.HelloEntryLen
	// Always send at least one HELLO, even with an empty table: it is
	// how neighbors discover this node in the first place.
	for first := true; first || len(entries) > 0; first = false {
		chunk := entries
		if len(chunk) > maxEntries {
			chunk = chunk[:maxEntries]
		}
		entries = entries[len(chunk):]
		payload, err := packet.MarshalHello(chunk)
		if err != nil {
			n.reg.Counter("drop." + forward.DropMarshal).Inc()
			return
		}
		p := &packet.Packet{
			Dst:     packet.Broadcast,
			Src:     n.cfg.Address,
			Type:    packet.TypeHello,
			Payload: payload,
		}
		if err := n.enqueue(p); err != nil {
			// Queue pressure: the next beacon will carry the table.
			return
		}
		n.reg.Counter("hello.sent").Inc()
	}
}

// expiryTick drops stale routes and reschedules itself. With
// TriggeredUpdates, an expired destination is treated as a dead next
// hop: every route through it is withdrawn immediately and a triggered
// HELLO propagates the poisons, instead of each neighbor waiting out
// its own EntryTTL.
func (n *Node) expiryTick() {
	if n.stopped {
		return
	}
	dead := n.table.ExpireStale(n.env.Now())
	if len(dead) > 0 {
		n.reg.Counter("routes.expired").Add(uint64(len(dead)))
		if n.cfg.TriggeredUpdates {
			for _, d := range dead {
				if n.traceOn {
					n.cfg.Tracer.Emit(n.env.Now(), n.cfg.Address.String(), trace.KindRoute,
						"route.withdrawn dst=%v reason=expired", d)
				}
				n.withdrawNeighbor(d, "routes via expired neighbor")
			}
			n.triggeredHello()
		}
	}
	n.reg.Gauge("routes.count").Set(float64(n.table.Len()))
	n.expiryTimer.Reset(n.routeCheckPeriod())
}

// withdrawNextHop withdraws every route through dst's current next hop
// (triggered updates). A destination with no usable route is a no-op.
func (n *Node) withdrawNextHop(dst packet.Address, reason string) {
	e, ok := n.table.Lookup(dst)
	if !ok || e.Poisoned() {
		return
	}
	n.withdrawNeighbor(e.Via, reason)
	n.triggeredHello()
}

// withdrawNeighbor poisons (or removes) every route via the given
// neighbor, emitting a route.withdrawn event per destination.
func (n *Node) withdrawNeighbor(via packet.Address, reason string) {
	dead := n.table.RemoveNeighbor(n.env.Now(), via)
	if len(dead) == 0 {
		return
	}
	n.reg.Counter("routes.withdrawn").Add(uint64(len(dead)))
	if n.traceOn {
		for _, d := range dead {
			n.cfg.Tracer.Emit(n.env.Now(), n.cfg.Address.String(), trace.KindRoute,
				"route.withdrawn dst=%v via=%v reason=%s", d, via, reason)
		}
	}
	n.reg.Gauge("routes.count").Set(float64(n.table.Len()))
}

// triggeredHelloGap is the least spacing between triggered HELLOs: a
// tenth of the HELLO period, at least one second.
func (n *Node) triggeredHelloGap() time.Duration {
	return max(n.cfg.HelloPeriod/10, time.Second)
}

// triggeredHello broadcasts the table out of cycle so withdrawals reach
// neighbors within a frame time. Rate-limited by triggeredHelloGap: a
// burst of withdrawals costs one beacon, and a flapping link cannot turn
// the node into a beacon firehose.
func (n *Node) triggeredHello() {
	now := n.env.Now()
	if !n.lastTriggered.IsZero() && now.Sub(n.lastTriggered) < n.triggeredHelloGap() {
		return
	}
	n.lastTriggered = now
	n.reg.Counter("hello.triggered").Inc()
	n.sendHello()
}
