package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/meshsec"
	"repro/internal/packet"
)

// fenceEnv is a host that allocates nothing per call, so AllocsPerRun on
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
// HELLO from a known neighbour and an overheard DATA frame are decoded,
// verified, decrypted and applied with none, and a forwarded DATA frame
// costs its clone (the packet and its payload) and its queue entry. The
// same holds when the node's Link shares a meshsec.Memo, whether each
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

	// measure feeds runs+1 freshly sealed copies of p (AllocsPerRun warms
	// up with one), each a clock tick after the last, so every copy passes
	// the replay window and the forwarding dedup.
	measure := func(p packet.Packet, after func()) float64 {
		const runs = 320
		frames := make([][]byte, runs+1)
		for i := range frames {
			frames[i] = sealed(p)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
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
		t.Errorf("sealed HELLO from a known neighbour: %v allocations, want 0", got)
	}
	if got := measure(data(7), nil); got != 0 {
		t.Errorf("overheard sealed DATA frame: %v allocations, want 0", got)
	}
	before := env.tx
	// The clone's packet and payload, and the queue entry: the level's
	// slice was emptied by the last transmission and regrows for this one.
	if got := measure(data(self), n.HandleTxDone); got != 3 {
		t.Errorf("forwarded sealed DATA frame: %v allocations, want 3", got)
	}
	if env.tx-before != 321 {
		t.Errorf("forwarded %d frames, want 321", env.tx-before)
	}
}
