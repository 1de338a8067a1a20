package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/meshsec"
	"repro/internal/packet"
)

// gateCounters are the verdicts HandleFrame books a frame under before a
// handler sees it.
var gateCounters = []string{
	"rx.corrupt", "rx.own_echo", "rx.overheard",
	"sec.drop.legacy", "sec.drop.auth", "sec.drop.replay", "sec.rx.opened",
}

// gateVerdict is the gate counter an arrival of frame at n must move, by
// HandleFrame's order of checks. "open" means exactly one of
// sec.rx.opened, sec.drop.auth and sec.drop.replay; "" (a plaintext frame
// an unsecured node accepts) means none.
func gateVerdict(n *Node, frame []byte) string {
	p, err := packet.Unmarshal(frame)
	switch {
	case err != nil:
		return "rx.corrupt"
	case p.Src == n.cfg.Address:
		return "rx.own_echo"
	case n.sec != nil && !p.Secured:
		return "sec.drop.legacy"
	case n.sec == nil && p.Secured:
		return "rx.corrupt"
	case p.Type != packet.TypeHello && p.Type != packet.TypeSlotBeacon &&
		p.Via != n.cfg.Address && p.Via != packet.Broadcast:
		return "rx.overheard"
	case n.sec != nil:
		return "open"
	}
	return ""
}

// FuzzNodeHandleFrame hands arbitrary frames to three nodes, each arrival
// twice: two secured nodes sharing one meshsec.Memo, and an unsecured one.
// A frame that parses is also sent as fuzzVariants copies from as many new
// origin addresses, sealed under the network key when seal is set. Every
// arrival must move rx.frames by one and exactly the gate counter
// gateVerdict names, and a frame opens at most once at a node. When no
// variant authenticates, the variants may grow the live heap by at most
// fuzzBytesPerArrival an arrival: a frame that fails authentication
// leaves no state behind.
func FuzzNodeHandleFrame(f *testing.F) {
	const fuzzVariants, fuzzBytesPerArrival = 32, 32
	for _, p := range []*packet.Packet{
		{Dst: packet.Broadcast, Src: 9, Type: packet.TypeHello, Payload: []byte{0, 7, 1, 0}},
		{Dst: 2, Src: 9, Via: 2, Type: packet.TypeData, Payload: []byte("reading")},
		{Dst: 1, Src: 9, Via: 1, Type: packet.TypeDataAck, SeqID: 3, Number: 1, Payload: []byte("x")},
		{Dst: 5, Src: 9, Via: 2, Type: packet.TypeData, Payload: []byte("relay me")},
		{Dst: 2, Src: 9, Via: 7, Type: packet.TypeData, Payload: []byte("overheard")},
		{Dst: 1, Src: 9, Via: 1, Type: packet.TypeSync, SeqID: 1, Number: 2, Payload: []byte{0, 0, 1, 0}},
		{Dst: packet.Broadcast, Src: 9, Type: packet.TypeSlotBeacon, Payload: []byte{1, 2}},
	} {
		for _, secured := range []bool{false, true} {
			p.Secured, p.Counter = secured, 1
			frame, err := packet.Marshal(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame, secured)
			f.Add(frame, false)
		}
	}
	f.Add([]byte{0xFF, 0x00, 0x01}, false)

	f.Fuzz(func(t *testing.T, frame []byte, seal bool) {
		b := newSecBus(t, fastConfig(), &testNetKey, map[packet.Address]bool{3: true}, 1, 2, 3)
		memo := new(meshsec.Memo)
		b.env(1).node.sec.ShareMemo(memo)
		b.env(2).node.sec.ShareMemo(memo)
		for _, e := range b.envs {
			e.node.reg.Counter("rx.frames")
			for _, name := range gateCounters {
				e.node.reg.Counter(name)
			}
		}
		opened := map[*Node]bool{}
		names := append(slices.Clone(gateCounters), "rx.frames")
		arrive := func(e *testEnv, frame []byte) {
			n, want := e.node, gateVerdict(e.node, frame)
			before := make([]uint64, len(names))
			for i, name := range names {
				before[i] = n.reg.Counter(name).Value()
			}
			n.HandleFrame(append([]byte(nil), frame...), RxInfo{RSSIDBm: -80, SNRDB: 10})
			if d := n.reg.Counter("rx.frames").Value() - before[len(gateCounters)]; d != 1 {
				t.Fatalf("node %v, frame % x: rx.frames moved by %d", e.addr, frame, d)
			}
			var moved []string
			for i, name := range gateCounters {
				if n.reg.Counter(name).Value() != before[i] {
					moved = append(moved, name)
				}
			}
			// A handler behind the gate may book rx.corrupt too.
			if want != "rx.corrupt" && len(moved) > 1 && moved[0] == "rx.corrupt" && slices.Contains(moved, "sec.rx.opened") ||
				want == "" && len(moved) == 1 && moved[0] == "rx.corrupt" {
				moved = moved[1:]
			}
			if want == "open" {
				if len(moved) != 1 || moved[0] != "sec.rx.opened" && moved[0] != "sec.drop.auth" && moved[0] != "sec.drop.replay" {
					t.Fatalf("node %v, frame % x: moved %v, want one of the Open verdicts", e.addr, frame, moved)
				}
				if moved[0] == "sec.rx.opened" {
					if opened[n] {
						t.Fatalf("node %v, frame % x: opened twice", e.addr, frame)
					}
					opened[n] = true
				}
				return
			}
			if (want == "" && len(moved) != 0) || (want != "" && (len(moved) != 1 || moved[0] != want)) {
				t.Fatalf("node %v, frame % x: moved %v, want %q", e.addr, frame, moved, want)
			}
		}
		hear := func(frame []byte) {
			clear(opened)
			for range 2 {
				for _, e := range b.envs {
					arrive(e, frame)
				}
			}
		}

		hear(frame)
		p, err := packet.Unmarshal(frame)
		if err != nil {
			return
		}
		var variants [][]byte
		for k := 0; k < fuzzVariants; k++ {
			v := *p
			v.Src = packet.Address(0x4000 + k)
			if seal && v.Secured {
				v.Counter = uint32(k + 1)
			}
			out, err := packet.Marshal(&v)
			if err != nil {
				return
			}
			if seal && v.Secured {
				if err := meshsec.NewLink(testNetKey, v.Src).SealFrame(out, &v); err != nil {
					t.Fatal(err)
				}
			}
			variants = append(variants, out)
		}
		heap := func() int64 {
			// The second collection frees what the first moved to
			// sync.Pool victim caches.
			runtime.GC()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return int64(ms.HeapAlloc)
		}
		start := heap()
		authenticated := false
		for _, v := range variants {
			hear(v)
			authenticated = authenticated || opened[b.env(1).node] || opened[b.env(2).node]
		}
		grown := heap() - start
		runtime.KeepAlive(b)
		arrivals := int64(2 * len(b.envs) * len(variants))
		if p.Secured && !authenticated && grown > fuzzBytesPerArrival*arrivals {
			t.Fatalf("%d arrivals of frames that fail authentication grew the heap %d B (%d B each), want at most %d B each",
				arrivals, grown, grown/arrivals, fuzzBytesPerArrival)
		}
	})
}
