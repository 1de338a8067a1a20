package icn

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
)

// accepted are the counters a frame the forwarding plane takes in moves:
// the interest outcomes (a flood duplicate included) and the data ones. A
// data frame moves one per breadcrumb it serves, so it may move several.
var accepted = []string{
	"icn.interest.duplicate", "icn.interest.aggregated", "icn.interest.relayed",
	"icn.data.produced", "icn.cs.hit",
	"icn.data.overheard", "icn.data.delivered", "icn.data.forwarded",
}

// FuzzHandleFrame feeds arbitrary interest and named-data payloads, and
// arbitrary raw frames, to a node that produces one name, caches another
// and has an interest pending in a third; each frame arrives twice, with
// time passing in between. Nothing may panic, and each arrival counts
// under rx.frames and exactly once more: under rx.corrupt, rx.ignored, the
// accept counters or one drop.* reason. The node's own frame heard back is
// the one arrival rx.frames alone counts.
func FuzzHandleFrame(f *testing.F) {
	interest := func(nonce uint16, hops uint8, prev packet.Address, name string) []byte {
		return append(packet.Breadcrumb{ID: nonce, Hops: hops, PrevHop: prev}.Append(nil), name...)
	}
	data := func(producer packet.Address, hops uint8, name, content string) []byte {
		return packet.NamedData{Producer: producer, Hops: hops, Name: name, Content: []byte(content)}.Append(nil)
	}
	const kindInterest, kindData, kindRaw = 0, 1, 2
	bc := uint16(packet.Broadcast)
	for _, name := range []string{"own", "cached", "want", "new/name", strings.Repeat("n", packet.MaxNameLen+1)} {
		f.Add(uint8(kindInterest), uint16(9), bc, bc, interest(7, 1, 9, name))
	}
	f.Add(uint8(kindInterest), uint16(9), bc, bc, interest(8, maxHops-1, 9, "far"))
	f.Add(uint8(kindInterest), uint16(9), bc, bc, []byte{1, 2, 3})
	f.Add(uint8(kindData), uint16(2), uint16(1), uint16(1), data(5, 2, "want", "v"))
	f.Add(uint8(kindData), uint16(2), uint16(3), uint16(4), data(5, 2, "want", "v"))
	f.Add(uint8(kindData), uint16(2), uint16(1), uint16(4), data(5, 2, "stray", "v"))
	f.Add(uint8(kindData), uint16(2), uint16(1), uint16(1), []byte{0, 2, 1, 200, 'x'})
	hello, err := packet.Marshal(&packet.Packet{Dst: packet.Broadcast, Src: 2, Type: packet.TypeHello})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(kindRaw), uint16(0), uint16(0), uint16(0), hello)
	f.Add(uint8(kindRaw), uint16(0), uint16(0), uint16(0), []byte("not a frame"))

	f.Fuzz(func(t *testing.T, kind uint8, src, via, dst uint16, payload []byte) {
		frame := payload
		if k := kind % 3; k != kindRaw {
			p := &packet.Packet{Dst: packet.Address(dst), Src: packet.Address(src), Via: packet.Address(via), Type: packet.TypeInterest, Payload: payload}
			if k == kindData {
				p.Type = packet.TypeNamedData
			}
			var err error
			if frame, err = packet.Marshal(p); err != nil {
				return // too long for one frame
			}
		}
		const self = packet.Address(1)
		b := newBus(t, spec{Address: self, Produce: func(name string) []byte {
			if name == "own" {
				return []byte("21.5C")
			}
			return nil
		}}, spec{Address: 2})
		n := b.env(self).node
		n.cacheContent("cached", []byte("v"), 3, 2)
		if err := n.Express("want"); err != nil {
			t.Fatal(err)
		}
		echo := false
		if p, err := packet.Unmarshal(frame); err == nil {
			echo = p.Src == self
		}

		for arrival := 1; arrival <= 2; arrival++ {
			before := n.Metrics().Snapshot()
			n.HandleFrame(frame, core.RxInfo{})
			after := n.Metrics().Snapshot()
			moved := func(name string) float64 { return after[name] - before[name] }
			if got := moved("rx.frames"); got != 1 {
				t.Fatalf("arrival %d: rx.frames moved %v", arrival, got)
			}
			var outcomes []string
			for _, name := range []string{"rx.corrupt", "rx.ignored"} {
				if d := moved(name); d != 0 {
					outcomes = append(outcomes, name)
					if d != 1 {
						t.Fatalf("arrival %d: %s moved %v", arrival, name, d)
					}
				}
			}
			for _, name := range accepted {
				if moved(name) != 0 {
					outcomes = append(outcomes, "accepted")
					break
				}
			}
			for name := range after {
				if d := moved(name); strings.HasPrefix(name, "drop.") && d != 0 {
					outcomes = append(outcomes, name)
					if d != 1 {
						t.Fatalf("arrival %d: %s moved %v", arrival, name, d)
					}
				}
			}
			want := 1
			if echo {
				want = 0
			}
			if len(outcomes) != want {
				t.Fatalf("arrival %d: frame %x counted under %v, want %d places", arrival, frame, outcomes, want)
			}
			b.sched.RunFor(5 * time.Second)
		}
	})
}
