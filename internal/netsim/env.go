package netsim

import (
	"math/rand"
	"time"

	"repro/internal/airmedium"
	"repro/internal/core"
	"repro/internal/loraphy"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// nodeEnv adapts one protocol engine to the scheduler and the medium. It
// implements core.Env toward the engine and airmedium.Receiver/TxObserver
// toward the channel.
type nodeEnv struct {
	sim *Sim
	h   *Handle
	rng *rand.Rand
	phy loraphy.Params
}

var (
	_ core.Env             = (*nodeEnv)(nil)
	_ airmedium.Receiver   = (*nodeEnv)(nil)
	_ airmedium.TxObserver = (*nodeEnv)(nil)
)

// Now implements core.Env.
func (e *nodeEnv) Now() time.Time { return e.sim.Sched.Now() }

// Schedule implements core.Env.
func (e *nodeEnv) Schedule(d time.Duration, fn func()) func() {
	h := e.sim.Sched.MustAfter(d, fn)
	return func() { e.sim.Sched.Cancel(h) }
}

// NewTimer implements core.TimerEnv: a reusable single-shot timer holding
// its last scheduler handle, so re-arming allocates nothing, and cancelling
// it unconditionally, since a fired or zero handle cancels nothing.
func (e *nodeEnv) NewTimer(fn func()) core.Timer {
	return &simTimer{sched: e.sim.Sched, fire: fn}
}

type simTimer struct {
	sched *simtime.Scheduler
	fire  func()
	h     simtime.Handle
}

func (t *simTimer) Reset(d time.Duration) {
	t.sched.Cancel(t.h)
	t.h = t.sched.MustAfter(d, t.fire)
}

func (t *simTimer) Stop() { t.sched.Cancel(t.h) }

// Transmit implements core.Env.
func (e *nodeEnv) Transmit(frame []byte) (time.Duration, error) {
	airtime, err := e.sim.Medium.Transmit(e.h.Station, frame, e.phy)
	if err != nil {
		return 0, err
	}
	if e.sim.Tracer.Enabled() {
		e.sim.Tracer.Emit(e.Now(), e.h.addrStr, trace.KindTx,
			"%d bytes, %v airtime", len(frame), airtime)
	}
	return airtime, nil
}

// ChannelBusy implements core.Env.
func (e *nodeEnv) ChannelBusy() (bool, error) {
	return e.sim.Medium.Busy(e.h.Station, e.phy.FrequencyHz)
}

// Deliver implements core.Env.
func (e *nodeEnv) Deliver(msg core.AppMessage) {
	if e.sim.Tracer.Enabled() {
		e.sim.Tracer.Emit(e.Now(), e.h.addrStr, trace.KindApp,
			"delivered %d bytes from %v (reliable=%v)", len(msg.Payload), msg.From, msg.Reliable)
	}
	if e.h.OnMessage != nil {
		e.h.OnMessage(msg)
	}
}

// StreamDone implements core.Env.
func (e *nodeEnv) StreamDone(ev core.StreamEvent) {
	if e.sim.Tracer.Enabled() {
		e.sim.Tracer.Emit(e.Now(), e.h.addrStr, trace.KindStream,
			"stream %d to %v: err=%v chunks=%d retrans=%d elapsed=%v",
			ev.ID, ev.Dst, ev.Err, ev.Chunks, ev.Retransmissions, ev.Elapsed)
	}
	if e.h.OnStreamDone != nil {
		e.h.OnStreamDone(ev)
	}
}

// Rand implements core.Env.
func (e *nodeEnv) Rand() float64 { return e.rng.Float64() }

// OnFrame implements airmedium.Receiver.
func (e *nodeEnv) OnFrame(d airmedium.Delivery) {
	if e.h.killed || e.h.down {
		// A frame already in flight when the node crashed: the radio is
		// off, so the bits land nowhere. Counted so delivery accounting
		// stays exact.
		e.sim.faultDrop(d.At, e.h, "down", d.Data)
		return
	}
	data := d.Data
	if inj := e.sim.injector; inj != nil {
		if from, ok := e.sim.stationIdx[d.From]; ok {
			out := inj.OnDelivery(d.At, from, e.h.Index, data)
			if out.Drop {
				e.sim.faultDrop(d.At, e.h, out.Reason, data)
				return
			}
			if out.Corrupted {
				// Bit errors that slid past the 16-bit CRC: the engine
				// sees the mangled frame, as real hardware would.
				e.sim.reg.Counter("fault.corrupt.undetected").Inc()
				data = out.Data
			}
		}
	}
	if e.sim.Tracer.Enabled() {
		// Decode just enough to tag the medium-level event with the
		// packet's trace ID, into a stack packet so it allocates nothing;
		// HandleFrame re-parses on its own.
		var id trace.TraceID
		var p packet.Packet
		if packet.UnmarshalInto(&p, data) == nil {
			id = trace.TraceID(p.TraceID())
		}
		e.sim.Tracer.EmitPacket(d.At, e.h.addrStr, trace.KindRx, id,
			"%d bytes rssi=%.1f snr=%.1f", len(data), d.RSSIDBm, d.SNRDB)
	}
	e.h.Proto.HandleFrame(data, core.RxInfo{RSSIDBm: d.RSSIDBm, SNRDB: d.SNRDB})
}

// OnTxDone implements airmedium.TxObserver.
func (e *nodeEnv) OnTxDone(time.Time) { e.h.Proto.HandleTxDone() }
