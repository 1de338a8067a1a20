package core

import (
	"fmt"
	"time"

	"repro/internal/dutycycle"
	"repro/internal/forward"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
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

// slot is one packet waiting to transmit, stamped with its enqueue time
// so the queue.wait_ms histogram can measure head-of-line delay. A data
// or control slot owns its payload bytes: fill copies them into the
// buffer the slot kept from its last use, so a queue in steady state
// allocates nothing and no caller's buffer is retained. A HELLO slot
// holds its payload by reference (see Enqueue).
type slot struct {
	p  packet.Packet
	at time.Time
}

// fill copies p into s, reusing the payload buffer s already holds.
func (s *slot) fill(p *packet.Packet, at time.Time) {
	buf := s.p.Payload[:0]
	s.p = *p
	s.p.Payload = append(buf, p.Payload...)
	s.at = at
}

// ring is one priority level: a FIFO of slots reused in place. It grows
// (doubling, a power of two) only when full, so its slots, and the
// buffers they keep, number the deepest backlog its traffic reached; a
// level's buffers stay its own, sized to the payloads it carries.
type ring struct {
	slots   []slot
	head, n int
}

// at returns the i-th queued slot, 0 being the oldest.
func (r *ring) at(i int) *slot { return &r.slots[(r.head+i)&(len(r.slots)-1)] }

// pushBack returns the slot after the newest, growing the ring when full.
func (r *ring) pushBack() *slot {
	if r.n == len(r.slots) {
		grown := make([]slot, max(1, 2*r.n))
		for i := range r.n {
			grown[i] = *r.at(i)
		}
		r.slots, r.head = grown, 0
	}
	r.n++
	return r.at(r.n - 1)
}

// txQueue is a three-level priority FIFO holding at most queueCapacity
// packets.
type txQueue struct {
	levels [prioLevels]ring
}

func (q *txQueue) len() int { return q.levels[0].n + q.levels[1].n + q.levels[2].n }

// push enqueues a copy of p (of a HELLO, without its payload), rejecting
// when full. Routing packets may evict the newest data packet when full:
// a mesh that stops beaconing under load loses all routes, which is
// strictly worse than losing one datagram.
func (q *txQueue) push(p *packet.Packet, at time.Time) error {
	prio := priorityFor(p.Type)
	if q.len() >= queueCapacity {
		if prio != prioRouting {
			return fmt.Errorf("%w: %d packets queued", ErrQueueFull, q.len())
		}
		if !q.evictNewestData() {
			return fmt.Errorf("%w: %d control packets queued", ErrQueueFull, q.len())
		}
	}
	s := q.levels[prio-1].pushBack()
	if prio == prioRouting {
		s.p, s.at = *p, at
	} else {
		s.fill(p, at)
	}
	return nil
}

// evictNewestData drops the most recently queued data packet to make room.
func (q *txQueue) evictNewestData() bool {
	r := &q.levels[prioData-1]
	if r.n == 0 {
		return false
	}
	r.n--
	return true
}

// peek returns the next packet to transmit without removing it. The
// pointer is valid until the queue next changes.
func (q *txQueue) peek() (*packet.Packet, bool) {
	for i := range q.levels {
		if r := &q.levels[i]; r.n > 0 {
			return &r.at(0).p, true
		}
	}
	return nil, false
}

// pop removes the next packet and returns it along with its enqueue
// time. The packet stays in its slot, valid until the next push to its
// level.
func (q *txQueue) pop() (*packet.Packet, time.Time, bool) {
	for i := range q.levels {
		if r := &q.levels[i]; r.n > 0 {
			s := r.at(0)
			r.head = (r.head + 1) & (len(r.slots) - 1)
			r.n--
			return &s.p, s.at, true
		}
	}
	return nil, time.Time{}, false
}

// Transmitter is the one transmit path every engine sends through — the
// LoRaMesher node, the slotted wrapper around it, and the table-free
// flooding, reactive and ICN engines. It owns queue admission (three
// priority levels, at most queueCapacity frames), the duty-cycle
// regulator, the TxGate, listen-before-talk and the jittered inter-frame
// gap, and puts one frame on the air at a time, encoded into one reusable
// buffer. It accounts tx.*, queue.*, dutycycle.* and the queue_full,
// dutycycle, marshal and txerror drops in its owner's registry, and each
// packet's enqueue, queue-wait, airtime and drop in the config's Tracer.
type Transmitter struct {
	pathLog
	cfg   Config
	ins   txInstruments
	queue txQueue
	duty  dutyRegulator
	// dutyCarry preserves lifetime airtime across duty-regulator swaps
	// (an OpSetConfig changing the duty-cycle class replaces duty).
	dutyCarry                        time.Duration
	pumpTimer                        Timer
	cadTries                         int
	transmitting, pumpArmed, stopped bool
	// buf is the reusable frame-encode buffer behind transmitHead; the
	// Env.Transmit contract (no retention after return) makes reuse safe.
	buf []byte
}

// txInstruments are the transmit path's per-frame instruments, resolved
// once. Per-type counters (tx.type.*) fill lazily, one entry per type
// sent; the security ones only when cfg.Security is set.
type txInstruments struct {
	frames, bytes, sealed, secOverhead *metrics.Counter
	depth, dutyUtil                    *metrics.Gauge
	airtimeMs, waitMs                  *metrics.Histogram
	txType                             typeCounters
}

// NewTransmitter returns the transmit path of the node cfg describes — it
// reads Address, Phy, DutyCycleLimit, CAD, TxGate, Security and Tracer —
// transmitting through env and accounting into reg.
func NewTransmitter(cfg Config, env Env, reg *metrics.Registry) (*Transmitter, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil env")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	duty, err := newDuty(cfg)
	if err != nil {
		return nil, err
	}
	t := &Transmitter{pathLog: newPathLog(cfg, env, reg), cfg: cfg, duty: duty}
	t.pumpTimer = newTimer(env, func() {
		t.pumpArmed = false
		t.pump(0)
	})
	for _, reason := range []string{forward.DropQueueFull, forward.DropDutyCycle, forward.DropMarshal, forward.DropTxError} {
		reg.Counter("drop." + reason)
	}
	reg.Counter("dutycycle.deferrals")
	t.ins.frames = reg.Counter("tx.frames")
	t.ins.bytes = reg.Counter("tx.bytes")
	t.ins.depth = reg.Gauge("queue.depth")
	t.ins.dutyUtil = reg.Gauge("dutycycle.utilization")
	t.ins.airtimeMs = reg.Histogram("tx.airtime_ms")
	t.ins.waitMs = reg.Histogram("queue.wait_ms")
	if cfg.Security != nil {
		t.ins.sealed = reg.Counter("sec.tx.sealed")
		t.ins.secOverhead = reg.Counter("sec.overhead.bytes")
	}
	return t, nil
}

// Enqueue admits p for transmission after delay (at once when delay is
// not positive). A packet the queue refuses is counted under
// drop.queue_full, and Enqueue returns ErrQueueFull; after a delay the
// refusal is only counted. A stopped transmitter refuses everything with
// ErrStopped, including packets whose delay has yet to elapse.
//
// The queue keeps a copy of p, and of its payload unless p is a HELLO: a
// HELLO's payload is read in place until the frame leaves the queue, so
// its sender must leave those bytes alone until then. A node's beacon
// pages, the one HELLO source, live in a buffer the node re-encodes only
// once none of them is queued, and idle queue slots keep no copy of them.
func (t *Transmitter) Enqueue(p *packet.Packet, delay time.Duration) error {
	if t.stopped {
		return ErrStopped
	}
	if delay > 0 {
		t.enqueueLater(p, delay)
		return nil
	}
	// Stamp origin security state before Validate: WireLen depends on it.
	// Forwarded packets arrive already stamped — their counter belongs to
	// the origin and must survive the hop untouched, or every forwarder
	// would change the frame's identity (and its MIC inputs).
	if t.cfg.Security != nil && !p.Secured {
		p.Secured = true
		p.SecFlags = packet.SecFlagEncrypted
		p.Counter = t.cfg.Security.NextCounter()
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := t.queue.push(p, t.env.Now()); err != nil {
		if p.Type == packet.TypeHello {
			// Beacons are counted, never traced.
			t.reg.Counter("drop." + forward.DropQueueFull).Inc()
		} else {
			t.drop(p, forward.DropQueueFull, "drop: queue full (%d queued)", t.queue.len())
		}
		return err
	}
	if p.Type != packet.TypeHello {
		t.segment(p, span.SegEnqueue, 0, p.Type.String())
	}
	t.ins.depth.Set(float64(t.queue.len()))
	t.pump(0)
	return nil
}

// enqueueLater admits a copy of p, payload included, after delay. The
// closure holds the copy, not p: were p captured, every caller's packet
// would escape to the heap, a forward's and a Send's stack copy too.
func (t *Transmitter) enqueueLater(p *packet.Packet, delay time.Duration) {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	t.env.Schedule(delay, func() { _ = t.Enqueue(&q, 0) })
}

// pump tries to start transmitting the head-of-queue packet after delay.
// It is idempotent: at most one pending pump timer exists, and nothing
// happens while a transmission is in flight (TxDone re-pumps).
func (t *Transmitter) pump(delay time.Duration) {
	if t.stopped || t.transmitting {
		return
	}
	if t.pumpArmed {
		if delay > 0 {
			// An earlier pump is already scheduled; it will run first.
			return
		}
		t.pumpTimer.Stop()
		t.pumpArmed = false
	}
	if delay > 0 {
		t.pumpArmed = true
		t.pumpTimer.Reset(delay)
		return
	}
	t.transmitHead()
}

// transmitHead performs the duty-cycle, gate and CAD checks and starts
// the head-of-queue transmission.
func (t *Transmitter) transmitHead() {
	head, ok := t.queue.peek()
	if !ok {
		return
	}
	// Encode into the reusable buffer: Env.Transmit must not retain the
	// frame past the call, so one buffer serves every transmission.
	frame, err := packet.AppendMarshal(t.buf[:0], head)
	if err == nil {
		t.buf = frame
		if sec := t.cfg.Security; sec != nil && head.Secured {
			// Seal in place. Deterministic, so re-marshalling the same
			// head after a duty-cycle deferral reproduces the same bytes.
			err = sec.SealFrame(frame, head)
		}
	}
	if err != nil {
		// The packet was validated at enqueue; treat as a bug signal,
		// drop it, and keep the queue moving.
		head, _, _ = t.queue.pop()
		t.drop(head, forward.DropMarshal, "drop: marshal failed: %v", err)
		t.pump(0)
		return
	}
	airtime, err := t.cfg.Phy.Airtime(len(frame))
	if err != nil {
		head, _, _ = t.queue.pop()
		t.dropAs(t.reg.Counter("drop."+forward.DropMarshal), head, "airtime", "drop: airtime rejected: %v", err)
		t.pump(0)
		return
	}
	now := t.env.Now()
	if !t.duty.CanTransmit(now, airtime) {
		at, err := t.duty.NextAllowed(now, airtime)
		if err != nil {
			// The frame alone exceeds the whole budget; it can never
			// be sent legally.
			head, _, _ = t.queue.pop()
			t.drop(head, forward.DropDutyCycle, "drop: frame airtime %v exceeds whole duty budget", airtime)
			t.pump(0)
			return
		}
		t.reg.Counter("dutycycle.deferrals").Inc()
		t.ins.dutyUtil.Set(t.duty.Utilization(now))
		t.pump(at.Sub(now) + time.Millisecond)
		return
	}
	if t.cfg.TxGate != nil {
		// Scheduled access (the slotted strategy): outside the node's
		// transmission window the frame waits for clearance. Runs after
		// the duty check so deferred frames never double-spend budget
		// probes, and before CAD so listen-before-talk happens inside the
		// granted window.
		if wait := t.cfg.TxGate.Clearance(now, head.Type, airtime); wait > 0 {
			t.reg.Counter("txgate.deferrals").Inc()
			t.pump(wait)
			return
		}
	}
	if t.cfg.CAD {
		busy, err := t.env.ChannelBusy()
		if err == nil && busy && t.cadTries < cadMaxTries {
			t.cadTries++
			t.reg.Counter("cad.deferrals").Inc()
			backoff := cadBackoffPreambles * t.cfg.Phy.PreambleTime()
			t.pump(time.Duration((1 + t.env.Rand()) * float64(backoff)))
			return
		}
		t.cadTries = 0
	}
	head, enqueuedAt, _ := t.queue.pop()
	t.ins.depth.Set(float64(t.queue.len()))
	if _, err := t.env.Transmit(frame); err != nil {
		t.drop(head, forward.DropTxError, "drop: radio transmit error: %v", err)
		t.pump(0)
		return
	}
	t.duty.Record(now, airtime)
	t.transmitting = true
	t.transmitted(head, len(frame), now, enqueuedAt, airtime)
}

// transmitted accounts a frame the radio accepted at now, after the
// packet waited in the queue since enqueuedAt (zero if unknown).
func (t *Transmitter) transmitted(head *packet.Packet, frameLen int, now, enqueuedAt time.Time, airtime time.Duration) {
	t.ins.frames.Inc()
	t.ins.txType.get(t.reg, "tx.type.", head.Type).Inc()
	t.ins.bytes.Add(uint64(frameLen))
	if head.Secured {
		t.ins.sealed.Inc()
		t.ins.secOverhead.Add(uint64(packet.SecOverhead))
	}
	t.ins.airtimeMs.ObserveDuration(airtime)
	if !enqueuedAt.IsZero() {
		t.ins.waitMs.ObserveDuration(now.Sub(enqueuedAt))
	}
	t.ins.dutyUtil.Set(t.duty.Utilization(now))
	if head.Type == packet.TypeHello {
		return
	}
	if t.segsOn {
		id := trace.TraceID(head.TraceID())
		if !enqueuedAt.IsZero() {
			t.tracer.EmitSeg(now, t.addrStr, trace.KindSpan, id, span.SegQueueWait.String(), now.Sub(enqueuedAt), "")
		}
		t.tracer.EmitSeg(now, t.addrStr, trace.KindSpan, id, span.SegAirtime.String(), airtime, head.Type.String())
	}
	if t.traceOn {
		t.tracePacket(trace.KindTx, head, "tx %v %v->%v via %v, %d bytes, airtime %v",
			head.Type, head.Src, head.Dst, head.Via, frameLen, airtime)
	}
}

// TxDone is the host's signal that the frame on the air ended. The next
// frame waits out the inter-frame gap, jittered ±50% so forwarders on a
// shared path don't lock step into repeated collisions.
func (t *Transmitter) TxDone() {
	if t.stopped {
		return
	}
	t.transmitting = false
	t.pump(time.Duration((0.5 + t.env.Rand()) * float64(interFrameGap)))
}

// Stop silences the transmitter: nothing further is queued or sent.
func (t *Transmitter) Stop() {
	t.stopped = true
	t.pumpTimer.Stop()
}

// airtimeUsed returns the cumulative transmit airtime, including airtime
// spent under duty regulators replaced by control-plane reconfiguration.
func (t *Transmitter) airtimeUsed() time.Duration { return t.dutyCarry + t.duty.LifetimeAirtime() }

// setDutyLimit swaps in a regulator for a new duty-cycle limit, carrying
// the lifetime airtime ledger so AirtimeUsed stays monotonic.
func (t *Transmitter) setDutyLimit(limit float64) error {
	t.cfg.DutyCycleLimit = limit
	duty, err := newDuty(t.cfg)
	if err != nil {
		return err
	}
	t.dutyCarry += t.duty.LifetimeAirtime()
	t.duty = duty
	return nil
}

// dutyRegulator is the transmit gate: a dutycycle.Regulator, or
// unlimitedDuty when the config lifts regulation.
type dutyRegulator interface {
	CanTransmit(now time.Time, airtime time.Duration) bool
	Record(now time.Time, airtime time.Duration)
	NextAllowed(now time.Time, airtime time.Duration) (time.Time, error)
	LifetimeAirtime() time.Duration
	// Utilization is the fraction of the rolling airtime budget consumed
	// at now (0 when unregulated); it feeds the dutycycle.utilization
	// gauge.
	Utilization(now time.Time) float64
}

// unlimitedDuty disables regulation.
type unlimitedDuty struct{ lifetime time.Duration }

func (*unlimitedDuty) CanTransmit(time.Time, time.Duration) bool { return true }
func (u *unlimitedDuty) Record(_ time.Time, a time.Duration)     { u.lifetime += a }
func (u *unlimitedDuty) NextAllowed(now time.Time, _ time.Duration) (time.Time, error) {
	return now, nil
}
func (u *unlimitedDuty) LifetimeAirtime() time.Duration { return u.lifetime }
func (*unlimitedDuty) Utilization(time.Time) float64    { return 0 }

// newDuty builds the duty-cycle gate from the config: unregulated at a
// limit of 1 or more, else the standard rolling-hour regulator at the
// configured limit (the band's regulatory limit when zero).
func newDuty(cfg Config) (dutyRegulator, error) {
	if cfg.DutyCycleLimit >= 1 {
		return &unlimitedDuty{}, nil
	}
	limit := cfg.DutyCycleLimit
	if limit == 0 {
		var err error
		if limit, err = dutycycle.LimitForFrequency(cfg.Phy.FrequencyHz); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	reg, err := dutycycle.NewRegulator(limit, dutycycle.DefaultWindow)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return reg, nil
}

// HandleTxDone is called by the host when the node's transmission ends.
func (n *Node) HandleTxDone() { n.tx.TxDone() }

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
	// The transmit queue copies the payload.
	p := packet.Packet{
		Dst:     packet.Broadcast,
		Src:     n.cfg.Address,
		Type:    t,
		Payload: payload,
	}
	return n.tx.Enqueue(&p, 0)
}
