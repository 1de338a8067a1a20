package core

import (
	"fmt"
	"time"

	"repro/internal/forward"
	"repro/internal/packet"
	"repro/internal/span"
)

// priority orders packets in the transmit queue: routing control first
// (the mesh depends on fresh tables), then stream control (ACK/LOST/SYNC,
// which unblock in-flight transfers), then data.
type priority int

const (
	prioRouting priority = iota + 1
	prioControl
	prioData
	prioLevels = 3
)

func priorityFor(t packet.Type) priority {
	switch t {
	case packet.TypeHello:
		return prioRouting
	case packet.TypeAck, packet.TypeLost, packet.TypeSync, packet.TypeSlotBeacon:
		return prioControl
	default:
		return prioData
	}
}

// queued is one packet waiting to transmit, stamped with its enqueue time
// so the queue.wait_ms histogram can measure head-of-line delay.
type queued struct {
	p  *packet.Packet
	at time.Time
}

// txQueue is a three-level priority FIFO holding at most queueCapacity
// packets.
type txQueue struct {
	levels [prioLevels][]queued
	size   int
}

func (q *txQueue) len() int { return q.size }

// push enqueues p, rejecting when full. Routing packets may evict the
// newest data packet when full: a mesh that stops beaconing under load
// loses all routes, which is strictly worse than losing one datagram.
func (q *txQueue) push(p *packet.Packet, at time.Time) error {
	prio := priorityFor(p.Type)
	if q.size >= queueCapacity {
		if prio != prioRouting {
			return fmt.Errorf("%w: %d packets queued", ErrQueueFull, q.size)
		}
		if !q.evictNewestData() {
			return fmt.Errorf("%w: %d control packets queued", ErrQueueFull, q.size)
		}
	}
	idx := int(prio) - 1
	q.levels[idx] = append(q.levels[idx], queued{p: p, at: at})
	q.size++
	return nil
}

// evictNewestData drops the most recently queued data packet to make room.
func (q *txQueue) evictNewestData() bool {
	idx := int(prioData) - 1
	lvl := q.levels[idx]
	if len(lvl) == 0 {
		return false
	}
	lvl[len(lvl)-1] = queued{}
	q.levels[idx] = lvl[:len(lvl)-1]
	q.size--
	return true
}

// peek returns the next packet to transmit without removing it.
func (q *txQueue) peek() (*packet.Packet, bool) {
	for i := range q.levels {
		if len(q.levels[i]) > 0 {
			return q.levels[i][0].p, true
		}
	}
	return nil, false
}

// pop removes and returns the next packet along with its enqueue time.
func (q *txQueue) pop() (*packet.Packet, time.Time, bool) {
	for i := range q.levels {
		if len(q.levels[i]) > 0 {
			e := q.levels[i][0]
			q.levels[i][0] = queued{}
			q.levels[i] = q.levels[i][1:]
			q.size--
			return e.p, e.at, true
		}
	}
	return nil, time.Time{}, false
}

// enqueue validates, queues, and pumps a packet assembled by the node.
func (n *Node) enqueue(p *packet.Packet) error {
	if n.stopped {
		return ErrStopped
	}
	// Stamp origin security state before Validate: WireLen depends on it.
	// Forwarded packets arrive already stamped — their counter belongs to
	// the origin and must survive the hop untouched, or every forwarder
	// would change the frame's identity (and its MIC inputs).
	if n.sec != nil && !p.Secured {
		p.Secured = true
		p.SecFlags = packet.SecFlagEncrypted
		p.Counter = n.sec.NextCounter()
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := n.queue.push(p, n.env.Now()); err != nil {
		if p.Type == packet.TypeHello {
			// Beacons are counted, never traced.
			n.reg.Counter("drop." + forward.DropQueueFull).Inc()
		} else {
			n.drop(p, forward.DropQueueFull, "drop: queue full (%d queued)", n.queue.len())
		}
		return err
	}
	if p.Type != packet.TypeHello {
		n.segment(p, span.SegEnqueue, 0, p.Type.String())
	}
	n.ins.queueDepth.Set(float64(n.queue.len()))
	n.pump(0)
	return nil
}

// pump tries to start transmitting the head-of-queue packet after delay.
// It is idempotent: at most one pending pump timer exists, and nothing
// happens while a transmission is in flight (HandleTxDone re-pumps).
func (n *Node) pump(delay time.Duration) {
	if n.stopped || n.transmitting {
		return
	}
	if n.pumpArmed {
		if delay > 0 {
			// An earlier pump is already scheduled; it will run first.
			return
		}
		n.pumpTimer.Stop()
		n.pumpArmed = false
	}
	if delay > 0 {
		n.pumpArmed = true
		n.pumpTimer.Reset(delay)
		return
	}
	n.transmitHead()
}

// transmitHead performs the duty-cycle and CAD checks and starts the
// head-of-queue transmission.
func (n *Node) transmitHead() {
	head, ok := n.queue.peek()
	if !ok {
		return
	}
	// Encode into the node's reusable buffer: Env.Transmit must not
	// retain the frame past the call, so one buffer serves every
	// transmission this node ever makes.
	frame, err := packet.AppendMarshal(n.txBuf[:0], head)
	if err == nil {
		n.txBuf = frame
		if n.sec != nil && head.Secured {
			// Seal in place. Deterministic, so re-marshalling the same
			// head after a duty-cycle deferral reproduces the same bytes.
			// One seal in 32 is timed (see secStatTick).
			n.secSealTick++
			sampled := n.secSealTick&31 == 0
			var start time.Time
			if sampled {
				start = time.Now()
			}
			err = n.sec.SealFrame(frame, head)
			if sampled {
				n.ins.secSealNs.Observe(float64(time.Since(start)))
			}
		}
	}
	if err != nil {
		// The packet was validated at enqueue; treat as a bug signal,
		// drop it, and keep the queue moving.
		n.queue.pop()
		n.drop(head, forward.DropMarshal, "drop: marshal failed: %v", err)
		n.pump(0)
		return
	}
	airtime, err := n.cfg.Phy.Airtime(len(frame))
	if err != nil {
		n.queue.pop()
		n.dropAs(n.reg.Counter("drop."+forward.DropMarshal), head, "airtime", "drop: airtime rejected: %v", err)
		n.pump(0)
		return
	}
	now := n.env.Now()
	if !n.duty.CanTransmit(now, airtime) {
		at, err := n.duty.NextAllowed(now, airtime)
		if err != nil {
			// The frame alone exceeds the whole budget; it can never
			// be sent legally.
			n.queue.pop()
			n.drop(head, forward.DropDutyCycle, "drop: frame airtime %v exceeds whole duty budget", airtime)
			n.pump(0)
			return
		}
		n.reg.Counter("dutycycle.deferrals").Inc()
		n.ins.dutyUtil.Set(n.duty.Utilization(now))
		n.pump(at.Sub(now) + time.Millisecond)
		return
	}
	if n.cfg.TxGate != nil {
		// Scheduled access (the slotted strategy): outside the node's
		// transmission window the frame waits for clearance. Runs after
		// the duty check so deferred frames never double-spend budget
		// probes, and before CAD so listen-before-talk happens inside the
		// granted window.
		if wait := n.cfg.TxGate.Clearance(now, head.Type, airtime); wait > 0 {
			n.reg.Counter("txgate.deferrals").Inc()
			n.pump(wait)
			return
		}
	}
	if n.cfg.CAD {
		busy, err := n.env.ChannelBusy()
		if err == nil && busy && n.cadTries < cadMaxTries {
			n.cadTries++
			n.reg.Counter("cad.deferrals").Inc()
			backoff := cadBackoffPreambles * n.cfg.Phy.PreambleTime()
			n.pump(time.Duration((1 + n.env.Rand()) * float64(backoff)))
			return
		}
		n.cadTries = 0
	}
	_, enqueuedAt, _ := n.queue.pop()
	n.ins.queueDepth.Set(float64(n.queue.len()))
	if _, err := n.env.Transmit(frame); err != nil {
		n.drop(head, forward.DropTxError, "drop: radio transmit error: %v", err)
		n.pump(0)
		return
	}
	n.duty.Record(now, airtime)
	n.transmitting = true
	n.transmitted(head, len(frame), now, enqueuedAt, airtime)
}

// HandleTxDone is called by the host when the node's transmission ends.
func (n *Node) HandleTxDone() {
	if n.stopped {
		return
	}
	n.transmitting = false
	// Jitter the inter-frame gap ±50% so forwarders on a shared path
	// don't lock step into repeated collisions.
	n.pump(time.Duration((0.5 + n.env.Rand()) * float64(interFrameGap)))
}

// interFrameGap is the nominal pause between consecutive transmissions
// from one node.
const interFrameGap = 80 * time.Millisecond

// fingerprint is a routed packet's end-to-end identity (everything but
// the hop-local via field) for the forwarding loop-breaker — the same
// hash that serves as the packet's trace ID.
func fingerprint(p *packet.Packet) uint64 { return p.TraceID() }

// SendBeacon enqueues one strategy control beacon: a link-local
// broadcast frame of the given type (e.g. TypeSlotBeacon) that is never
// forwarded. Strategies layered on this engine use it for their own
// periodic control traffic; it rides the control priority level.
func (n *Node) SendBeacon(t packet.Type, payload []byte) error {
	if n.stopped {
		return ErrStopped
	}
	if t.Routed() {
		return fmt.Errorf("core: beacon type %v is routed; beacons are link-local", t)
	}
	p := &packet.Packet{
		Dst:     packet.Broadcast,
		Src:     n.cfg.Address,
		Type:    t,
		Payload: append([]byte(nil), payload...),
	}
	return n.enqueue(p)
}
