// Package baseline implements the controlled-flooding comparison protocol
// for the evaluation. Flooding is the standard straw-man LoRaMesher is
// measured against: it needs no routing state — every node rebroadcasts
// every new packet until a hop limit — so it delivers without convergence
// delay but at a duplicate-transmission cost that grows with network size.
//
// The flooding node reuses the LoRaMesher wire header (DATA packets with
// Via = broadcast) and prepends a 3-byte flood header to the payload:
// TTL(1) and a 16-bit origin sequence number used for duplicate
// suppression.
package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// floodHeaderLen is TTL(1) + seqno(2).
const floodHeaderLen = 3

// MaxPayload is the application bytes one flooded packet can carry.
var MaxPayload = packet.MaxPayload(packet.TypeData) - floodHeaderLen

// Errors returned by the flooding API.
var (
	ErrTooLarge = errors.New("baseline: payload too large")
	ErrStopped  = errors.New("baseline: node is stopped")
)

const (
	// ttl is the rebroadcast hop limit a flood starts with.
	ttl = 8
	// rebroadcastDelay is the mean randomized hold-off before a node
	// repeats a packet; the jitter desynchronizes the simultaneous
	// rebroadcasts that otherwise collide.
	rebroadcastDelay = 500 * time.Millisecond
	// dedupCapacity is how many (origin, seq) pairs the duplicate
	// suppressor remembers.
	dedupCapacity = 512
)

// floodKey identifies a flooded packet network-wide.
type floodKey struct {
	origin packet.Address
	seq    uint16
}

// Node is one controlled-flooding protocol engine. Like core.Node it is a
// host-driven state machine implementing the same engine surface, so the
// simulator runs both protocols on identical substrates.
type Node struct {
	addr    packet.Address
	env     core.Env
	reg     *metrics.Registry
	stopped bool

	nextSeq uint16
	seen    forward.SeenSet[floodKey]
	tx      *forward.TxQueue
}

// NewNode creates a flooding node with the given mesh address on env.
func NewNode(addr packet.Address, env core.Env) (*Node, error) {
	if env == nil {
		return nil, fmt.Errorf("baseline: nil env")
	}
	if addr == packet.Broadcast {
		return nil, fmt.Errorf("baseline: node address must not be broadcast")
	}
	reg := metrics.NewRegistry()
	return &Node{
		addr: addr,
		env:  env,
		reg:  reg,
		seen: forward.SeenSet[floodKey]{Cap: dedupCapacity},
		tx:   forward.NewTxQueue(env, reg),
	}, nil
}

// Metrics exposes the node's instruments.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Start is a no-op: flooding needs no beaconing. It exists so the
// simulator can treat both protocols uniformly.
func (n *Node) Start() error {
	if n.stopped {
		return ErrStopped
	}
	return nil
}

// Stop silences the node.
func (n *Node) Stop() {
	n.stopped = true
	n.tx.Stop()
}

// Send floods a datagram toward dst (packet.Broadcast floods to everyone).
func (n *Node) Send(dst packet.Address, payload []byte) error {
	if n.stopped {
		return ErrStopped
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(payload), MaxPayload)
	}
	seq := n.nextSeq
	n.nextSeq++
	body := make([]byte, floodHeaderLen+len(payload))
	body[0] = ttl
	binary.BigEndian.PutUint16(body[1:3], seq)
	copy(body[floodHeaderLen:], payload)
	p := &packet.Packet{
		Dst:     dst,
		Src:     n.addr,
		Type:    packet.TypeData,
		Via:     packet.Broadcast,
		Payload: body,
	}
	n.seen.Remember(floodKey{origin: n.addr, seq: seq})
	n.reg.Counter("app.sent").Inc()
	n.tx.Enqueue(p, 0)
	return nil
}

// HandleFrame processes a received frame.
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
	if p.Type != packet.TypeData || len(p.Payload) < floodHeaderLen {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	if p.Src == n.addr {
		return // own flood echoed back
	}
	ttl := p.Payload[0]
	seq := binary.BigEndian.Uint16(p.Payload[1:3])
	key := floodKey{origin: p.Src, seq: seq}
	if n.seen.Remember(key) {
		n.reg.Counter("rx.duplicate").Inc()
		return
	}

	if p.Dst == n.addr || p.Dst == packet.Broadcast {
		n.reg.Counter("app.delivered").Inc()
		n.env.Deliver(core.AppMessage{
			From:    p.Src,
			To:      p.Dst,
			Payload: append([]byte(nil), p.Payload[floodHeaderLen:]...),
			At:      n.env.Now(),
		})
		if p.Dst == n.addr {
			return // unicast reached its destination; stop the flood here
		}
	}
	if ttl <= 1 {
		n.reg.Counter("drop." + forward.DropTTL).Inc()
		return
	}
	fwd := p.Clone()
	fwd.Payload[0] = ttl - 1
	n.reg.Counter("fwd.frames").Inc()
	// Randomized hold-off: nodes that heard the same broadcast would
	// otherwise rebroadcast at the same instant and collide.
	delay := time.Duration((0.5 + n.env.Rand()) * float64(rebroadcastDelay))
	n.tx.Enqueue(fwd, delay)
}

// HandleTxDone resumes the transmit queue.
func (n *Node) HandleTxDone() { n.tx.TxDone() }
