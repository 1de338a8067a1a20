package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/meshsec"
	"repro/internal/packet"
)

// fenceEnv is a host that allocates nothing per call, so mallocs on
// a node driven through it counts the engine's allocations only: frames
// are dropped on the floor, timers never fire, and the clock moves only
// when the test moves it.
type fenceEnv struct {
	now time.Time
	rng *rand.Rand
	tx  int
}

type nopTimer struct{}

func (nopTimer) Reset(time.Duration) {}
func (nopTimer) Stop()               {}

func (e *fenceEnv) Now() time.Time                                 { return e.now }
func (e *fenceEnv) Schedule(time.Duration, func()) (cancel func()) { return func() {} }
func (e *fenceEnv) NewTimer(func()) Timer                          { return nopTimer{} }
func (e *fenceEnv) Transmit([]byte) (time.Duration, error)         { e.tx++; return time.Millisecond, nil }
func (e *fenceEnv) ChannelBusy() (bool, error)                     { return false, nil }
func (e *fenceEnv) Deliver(AppMessage)                             {}
func (e *fenceEnv) StreamDone(StreamEvent)                         {}
func (e *fenceEnv) Rand() float64                                  { return e.rng.Float64() }

// TestReceivePathAllocs fences the secured receive path's allocations: a
// HELLO from a known neighbour, an overheard DATA frame and a forwarded
// one are decoded, verified, decrypted and applied or relayed with none
// (a forward is copied into a transmit-queue slot that keeps its buffer).
// The same holds when the node's Link shares a meshsec.Memo, whether each
// frame misses it or another listener has just opened the frame.
func TestReceivePathAllocs(t *testing.T) {
	for _, memo := range []string{"alone", "memo miss", "memo primed"} {
		t.Run(memo, func(t *testing.T) { receivePathAllocs(t, memo) })
	}
}

func receivePathAllocs(t *testing.T, memo string) {
	const self, neighbour, origin, far = 1, 2, 5, 12
	env := &fenceEnv{now: t0, rng: rand.New(rand.NewSource(1))}
	cfg := Config{Address: self, DutyCycleLimit: 1, Security: meshsec.NewLink(testNetKey, self)}
	// sibling hears every frame just before the node does, as a station
	// next to it on the same medium would.
	sibling := meshsec.NewLink(testNetKey, 3)
	if memo != "alone" {
		m := new(meshsec.Memo)
		cfg.Security.ShareMemo(m)
		sibling.ShareMemo(m)
	}
	var heard packet.Packet
	n, err := NewNode(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	links := map[packet.Address]*meshsec.Link{
		neighbour: meshsec.NewLink(testNetKey, neighbour),
		origin:    meshsec.NewLink(testNetKey, origin),
	}
	// sealed returns the wire frame of p, sealed by its origin as core's
	// transmit path does, with the origin's next frame counter.
	sealed := func(p packet.Packet) []byte {
		l := links[p.Src]
		p.Secured, p.SecFlags, p.Counter = true, packet.SecFlagEncrypted, l.NextCounter()
		frame, err := packet.Marshal(&p)
		if err == nil {
			err = l.SealFrame(frame, &p)
		}
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	rows := []packet.HelloEntry{{Addr: neighbour, Metric: 0, Role: packet.RoleDefault}}
	for a := packet.Address(3); a <= far; a++ {
		rows = append(rows, packet.HelloEntry{Addr: a, Metric: 1, Role: packet.RoleDefault})
	}
	helloPayload, err := packet.MarshalHello(rows)
	if err != nil {
		t.Fatal(err)
	}
	hello := packet.Packet{Dst: packet.Broadcast, Src: neighbour, Type: packet.TypeHello, Payload: helloPayload}
	data := func(via packet.Address) packet.Packet {
		return packet.Packet{Dst: far, Src: origin, Via: via, Type: packet.TypeData, Payload: make([]byte, 24)}
	}

	// measure feeds runs+1 freshly sealed copies of p (mallocs warms up
	// with one), each a clock tick after the last, so every copy passes
	// the replay window and the forwarding dedup, and returns the
	// allocations of the runs.
	const runs = 320
	measure := func(p packet.Packet, after func()) uint64 {
		frames := make([][]byte, runs+1)
		for i := range frames {
			frames[i] = sealed(p)
		}
		i := 0
		return mallocs(runs, func() {
			env.now = env.now.Add(2 * time.Second)
			if memo == "memo primed" {
				if err := packet.UnmarshalInto(&heard, frames[i]); err != nil {
					t.Fatal(err)
				}
				if err := sibling.Open(&heard); err != nil {
					t.Fatal(err)
				}
			}
			n.HandleFrame(frames[i], RxInfo{SNRDB: 5})
			i++
			if after != nil {
				after()
			}
		})
	}
	// Warm up: the first beacon installs the neighbour and its routes,
	// and a few hundred forwards grow the dedup set to its working size.
	measure(hello, nil)
	measure(data(self), n.HandleTxDone)
	if _, ok := n.Table().NextHop(far); !ok {
		t.Fatal("setup: no route to the far node")
	}

	if got := measure(hello, nil); got != 0 {
		t.Errorf("sealed HELLO from a known neighbour: %d allocations in %d frames, want 0", got, runs)
	}
	if got := measure(data(7), nil); got != 0 {
		t.Errorf("overheard sealed DATA frame: %d allocations in %d frames, want 0", got, runs)
	}
	before := env.tx
	if got := measure(data(self), n.HandleTxDone); got != 0 {
		t.Errorf("forwarded sealed DATA frame: %d allocations in %d frames, want 0", got, runs)
	}
	if env.tx-before != 321 {
		t.Errorf("forwarded %d frames, want 321", env.tx-before)
	}
}

// firingEnv is fenceEnv with timers the test fires by hand: fire runs
// every armed one, so a test can drive the transmitter's inter-frame
// pump without a scheduler.
type firingEnv struct {
	fenceEnv
	timers []*firingTimer
}

type firingTimer struct {
	fn    func()
	armed bool
}

func (t *firingTimer) Reset(time.Duration) { t.armed = true }
func (t *firingTimer) Stop()               { t.armed = false }

func (e *firingEnv) NewTimer(fn func()) Timer {
	t := &firingTimer{fn: fn}
	e.timers = append(e.timers, t)
	return t
}

func (e *firingEnv) fire() {
	for _, t := range e.timers {
		if t.armed {
			t.armed = false
			t.fn()
		}
	}
}

// TestSendPathAllocs fences the secured send path at 0 allocations in
// steady state: a node's HELLO, paged into three sealed frames, one
// datagram Send, and the HandleTxDone cycles that put all four on the
// air under the band's duty-cycle regulator, a beacon period apart.
func TestSendPathAllocs(t *testing.T) {
	const self, neighbour, far = 1, 2, 200
	env := &firingEnv{fenceEnv: fenceEnv{now: t0, rng: rand.New(rand.NewSource(1))}}
	n, err := NewNode(Config{Address: self, Security: meshsec.NewLink(testNetKey, self)}, env)
	if err != nil {
		t.Fatal(err)
	}
	// A neighbour that reaches 150 destinations: the node's own beacon
	// then needs three pages.
	rows := []packet.HelloEntry{{Addr: neighbour, Metric: 0, Role: packet.RoleDefault}}
	for a := packet.Address(far - 149); a <= far; a++ {
		rows = append(rows, packet.HelloEntry{Addr: a, Metric: 1, Role: packet.RoleDefault})
	}
	n.Table().ApplyHello(env.now, neighbour, packet.RoleDefault, 5, rows)
	payload := make([]byte, 24)
	cycle := func() {
		env.now = env.now.Add(5 * time.Minute)
		n.sendHello()
		if err := n.Send(far, payload); err != nil {
			t.Fatal(err)
		}
		for n.tx.transmitting {
			env.now = env.now.Add(time.Second)
			n.HandleTxDone()
			env.fire()
		}
	}
	// Warm up: the queue's levels and slots, the beacon buffer and the
	// regulator's hour of history grow to their working size.
	for range 64 {
		cycle()
	}
	const runs = 320
	before := env.tx
	if got := mallocs(runs, cycle); got != 0 {
		t.Errorf("HELLO of three pages, a Send and their transmissions: %d allocations in %d cycles, want 0", got, runs)
	}
	if sent, want := env.tx-before, 4*(runs+1); sent != want {
		t.Errorf("transmitted %d frames, want %d", sent, want)
	}
	if got := n.Metrics().Counter("hello.sent").Value(); got != 3*(64+runs+1) {
		t.Errorf("hello.sent = %d, want three pages a cycle", got)
	}
}

// mallocs calls f once to warm up, then runs more times on one processor,
// and returns every heap allocation those runs made: testing.AllocsPerRun
// rounds its mean down, so it passes up to runs − 1 of them unseen.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
