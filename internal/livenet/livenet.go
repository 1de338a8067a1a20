// Package livenet is the wall-clock runtime: it runs the same LoRaMesher
// protocol engine as the discrete-event simulator, but live — one
// goroutine per node, real timers (optionally time-scaled), and a real
// UDP socket for a medium. It exists to prove the engine's host contract
// under genuine concurrency — the deterministic simulator can hide
// ordering assumptions that a goroutine-per-node deployment (or real
// hardware) would violate — and it is exercised under the race detector
// in this package's tests.
//
// There is one Host type and one link: the UDP link (ListenUDP) unicasts
// a frame to configured peers, so hosts in one process, in separate OS
// processes, or on separate machines form one mesh the same way. The
// frame leaves after its emulated LoRa airtime, so protocol timing
// (airtime serialization, beacon pacing, ARQ round trips) is preserved.
//
// Each host owns a serial event loop; every interaction with its engine
// (frames, timers, API calls) is a closure delivered to that loop, so the
// engine itself still sees single-threaded execution, exactly as it would
// behind an interrupt-driven radio driver.
package livenet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/loraphy"
	"repro/internal/packet"
)

// mailboxDepth bounds each host's pending-event queue: deep enough that a
// burst of arrivals and timer firings never blocks a sender in practice,
// small enough that a wedged loop shows up as back-pressure.
const mailboxDepth = 256

// Config describes a wall-clock host.
type Config struct {
	// Node is the engine configuration; Address must be set, unique
	// across the mesh.
	Node core.Config
	// TimeScale compresses virtual time: a scale of 60 runs one virtual
	// minute per wall second. Zero means 1 (real time).
	TimeScale float64
	// Seed drives jitter randomness, mixed with the node address.
	Seed int64
	// MetricsAddr, when non-empty, serves the engine's registry as
	// Prometheus-format metrics at GET /metrics on that TCP address; GET
	// /healthz answers with a JSON liveness summary. Use "127.0.0.1:0"
	// to let the kernel pick a free port (see MetricsAddr).
	MetricsAddr string
	// HealthInterval arms the always-on health monitor when positive:
	// every interval of VIRTUAL time (wall time divided by TimeScale) the
	// monitor snapshots the routing table and counters to detect
	// blackholes, silence, a stuck duty budget, and replay anomalies (see
	// internal/health). A host only sees itself, so loops — which take
	// every table of the mesh — are out of its reach. With a MetricsAddr,
	// /healthz then reports the monitor's verdict and /metrics exports
	// the health.* instruments.
	HealthInterval time.Duration
}

// clock maps virtual protocol time onto the wall clock.
type clock struct {
	start time.Time // wall anchor, also virtual time zero
	scale float64
}

func newClock(scale float64) (clock, error) {
	if scale < 0 {
		return clock{}, fmt.Errorf("livenet: negative time scale")
	}
	if scale == 0 {
		scale = 1
	}
	return clock{start: time.Now(), scale: scale}, nil
}

// wall converts a virtual duration to wall-clock time.
func (c clock) wall(d time.Duration) time.Duration {
	return time.Duration(float64(d) / c.scale)
}

// now returns the current virtual time.
func (c clock) now() time.Time {
	return c.start.Add(time.Duration(float64(time.Since(c.start)) * c.scale))
}

// Host is one running wall-clock node.
type Host struct {
	addr  packet.Address
	node  *core.Node
	link  *UDPLink
	clock clock
	phy   loraphy.Params
	rng   *rand.Rand // event loop only
	obs   *observer

	events    chan func()
	closed    chan struct{}
	closeOnce sync.Once
	loopDone  chan struct{}

	onMsg    func(core.AppMessage)  // event loop only
	onStream func(core.StreamEvent) // event loop only
}

// Start runs one host over link. The host owns link from here on: it is
// closed when Start fails and when the host closes.
func Start(cfg Config, link *UDPLink) (*Host, error) {
	clk, err := newClock(cfg.TimeScale)
	if err != nil {
		link.Close()
		return nil, err
	}
	addr := cfg.Node.Address
	h := &Host{
		addr:     addr,
		link:     link,
		clock:    clk,
		phy:      cfg.Node.EffectivePhy(),
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(addr)*0x9e3779b9)),
		events:   make(chan func(), mailboxDepth),
		closed:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	node, err := core.NewNode(cfg.Node, (*hostEnv)(h))
	if err != nil {
		link.Close()
		return nil, fmt.Errorf("livenet: %w", err)
	}
	h.node = node
	if h.obs, err = observe(cfg, h); err != nil {
		link.Close()
		return nil, err
	}
	go h.loop()
	link.listen(h)
	var startErr error
	h.Do(func(n *core.Node) { startErr = n.Start() })
	if startErr != nil {
		h.Close()
		return nil, fmt.Errorf("livenet: start %v: %w", addr, startErr)
	}
	return h, nil
}

// Close stops the node and releases its link. It is idempotent.
func (h *Host) Close() {
	h.closeOnce.Do(func() {
		close(h.closed)
		h.obs.close()
		h.link.Close()
		<-h.loopDone
		h.node.Stop()
	})
}

// Addr returns the host's mesh address.
func (h *Host) Addr() packet.Address { return h.addr }

// MetricsAddr returns the metrics listener's address ("" when disabled)
// — with a ":0" config this is where the kernel actually bound it.
func (h *Host) MetricsAddr() string { return h.obs.addr() }

// SetOnMessage installs the callback that receives every application
// delivery; the host keeps no copy. The callback runs on the host's
// event loop, so it must not block; pass nil to remove it. Installing
// goes through Do, so do not call it from a callback.
func (h *Host) SetOnMessage(fn func(core.AppMessage)) {
	h.Do(func(*core.Node) { h.onMsg = fn })
}

// SetOnStreamDone installs the callback that receives every
// reliable-transfer outcome, under the same rules as SetOnMessage.
func (h *Host) SetOnStreamDone(fn func(core.StreamEvent)) {
	h.Do(func(*core.Node) { h.onStream = fn })
}

// receive hands the host a frame its link heard. The link's read loop
// calls it from its own goroutine; the engine sees the frame on the event
// loop.
func (h *Host) receive(frame []byte) {
	h.enqueue(func() {
		h.node.HandleFrame(frame, core.RxInfo{RSSIDBm: -80, SNRDB: 10})
	})
}

// loop serializes all engine interactions. It exits when the host
// closes; the mailbox channel itself is never closed, because timer
// goroutines may still attempt sends during shutdown (enqueue's select on
// the closed signal drops those safely).
func (h *Host) loop() {
	defer close(h.loopDone)
	for {
		select {
		case <-h.closed:
			return
		case fn := <-h.events:
			fn()
		}
	}
}

// enqueue delivers a closure to the host's loop; it drops the event if
// the host is shutting down (matching a powered-off radio).
func (h *Host) enqueue(fn func()) {
	select {
	case <-h.closed:
	case h.events <- fn:
	}
}

// Do runs fn inside the host's event loop and waits for it, giving
// callers race-free access to the engine (tables, sends, metrics).
func (h *Host) Do(fn func(n *core.Node)) {
	done := make(chan struct{})
	h.enqueue(func() {
		fn(h.node)
		close(done)
	})
	select {
	case <-done:
	case <-h.closed:
	}
}

// Send transmits a datagram from this host.
func (h *Host) Send(dst packet.Address, payload []byte) error {
	var err error
	h.Do(func(n *core.Node) { err = n.Send(dst, payload) })
	return err
}

// SendReliable opens a reliable transfer from this host.
func (h *Host) SendReliable(dst packet.Address, payload []byte) (uint8, error) {
	var (
		id  uint8
		err error
	)
	h.Do(func(n *core.Node) { id, err = n.SendReliable(dst, payload) })
	return id, err
}

// HasRoute reports whether the host can reach dst.
func (h *Host) HasRoute(dst packet.Address) bool {
	var ok bool
	h.Do(func(n *core.Node) { _, ok = n.Table().NextHop(dst) })
	return ok
}

// status snapshots the node for the health monitor. It runs on the
// host's own event loop (Do), so the table walk never races the engine.
func (h *Host) status() health.NodeStatus {
	st := health.NodeStatus{Addr: h.addr, Alive: true}
	h.Do(func(n *core.Node) {
		st.Stats = n.Metrics().Snapshot()
		for _, e := range n.Table().Entries() {
			if e.Poisoned() {
				continue
			}
			st.Routes = append(st.Routes, health.Route{Dst: e.Addr, Via: e.Via})
		}
	})
	return st
}

// hostEnv adapts a Host into the engine's host interface — the one
// core.Env of the wall-clock runtime. Its methods are invoked from the
// host's event loop.
type hostEnv Host

var _ core.Env = (*hostEnv)(nil)

func (e *hostEnv) host() *Host { return (*Host)(e) }

// Now implements core.Env with scaled time.
func (e *hostEnv) Now() time.Time { return e.clock.now() }

// Schedule implements core.Env using wall timers scaled to virtual time.
// A timer that has expired has already queued its callback on the loop,
// where Stop cannot reach it, so the loop runs fn only if no cancel came
// first: a cancel holds once it returns, as core.Env promises.
func (e *hostEnv) Schedule(d time.Duration, fn func()) func() {
	h := e.host()
	var cancelled atomic.Bool
	t := time.AfterFunc(h.clock.wall(d), func() {
		h.enqueue(func() {
			if !cancelled.Load() {
				fn()
			}
		})
	})
	return func() {
		cancelled.Store(true)
		t.Stop()
	}
}

// Transmit implements core.Env: the link carries the frame to whoever
// hears it after the frame's airtime; the sender gets TxDone then.
func (e *hostEnv) Transmit(frame []byte) (time.Duration, error) {
	h := e.host()
	airtime, err := h.phy.Airtime(len(frame))
	if err != nil {
		return 0, fmt.Errorf("livenet: %w", err)
	}
	data := append([]byte(nil), frame...)
	h.link.send(data, h.clock.wall(airtime), func() {
		h.enqueue(func() { h.node.HandleTxDone() })
	})
	return airtime, nil
}

// ChannelBusy implements core.Env: a UDP socket cannot sense carrier, so
// listen-before-talk always finds the channel clear.
func (e *hostEnv) ChannelBusy() (bool, error) { return false, nil }

// Deliver implements core.Env.
func (e *hostEnv) Deliver(msg core.AppMessage) {
	if fn := e.host().onMsg; fn != nil {
		fn(msg)
	}
}

// StreamDone implements core.Env.
func (e *hostEnv) StreamDone(ev core.StreamEvent) {
	if fn := e.host().onStream; fn != nil {
		fn(ev)
	}
}

// Rand implements core.Env. It runs only inside the host's loop, so the
// unsynchronized source is safe.
func (e *hostEnv) Rand() float64 { return e.rng.Float64() }
