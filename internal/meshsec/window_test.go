package meshsec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// shiftWindow is the replay window as a shifting bitmap (bit k tracks
// top-k), kept verbatim as the reference the ring window is held to.
type shiftWindow struct {
	top  uint32 // highest counter accepted; 0 = nothing yet
	bits [WindowBits / 64]uint64
}

func (w *shiftWindow) admit(c uint32) bool {
	if c == 0 {
		return false // 0 is "never sealed"; a real counter starts at 1
	}
	if c > w.top {
		w.slide(c - w.top)
		w.top = c
		w.bits[0] |= 1
		return true
	}
	back := w.top - c
	if back >= WindowBits {
		return false
	}
	word, bit := back/64, back%64
	if w.bits[word]&(1<<bit) != 0 {
		return false
	}
	w.bits[word] |= 1 << bit
	return true
}

func (w *shiftWindow) occupancy() int {
	n := 0
	for _, word := range w.bits {
		n += bits.OnesCount64(word)
	}
	return n
}

func (w *shiftWindow) slide(n uint32) {
	if n >= WindowBits {
		w.bits = [WindowBits / 64]uint64{}
		return
	}
	words, bits := int(n/64), n%64
	if words > 0 {
		copy(w.bits[words:], w.bits[:len(w.bits)-words])
		for i := 0; i < words; i++ {
			w.bits[i] = 0
		}
	}
	if bits > 0 {
		for i := len(w.bits) - 1; i > 0; i-- {
			w.bits[i] = w.bits[i]<<bits | w.bits[i-1]>>(64-bits)
		}
		w.bits[0] <<= bits
	}
}

// FuzzWindowMatchesShift holds the ring window to the shifting bitmap: after
// every admit both give the same verdict, top and occupancy. A step is five
// bytes, a mode and a big-endian v: mode%4 picks the counter as v itself
// (zero included), top+v%2048 (forward, within and past the window),
// top-v%2048 (behind it, wrapping below zero) or MaxUint32-v%4096 (near
// 2^32); mode&4 adds a jump of WindowBits+v%WindowBits. The first 512 steps
// are played.
func FuzzWindowMatchesShift(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 5, 2, 0, 0, 0, 3, 2, 0, 0, 0, 3})
	f.Add([]byte{1, 0, 0, 3, 255, 5, 0, 0, 0, 1, 2, 0, 0, 4, 0, 1, 0, 0, 0, 63, 2, 0, 0, 0, 64})
	f.Add([]byte{3, 0, 0, 0, 9, 2, 0, 0, 0, 7, 3, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2})
	f.Add([]byte{1, 0, 0, 0, 100, 1, 0, 0, 0, 64, 2, 0, 0, 1, 10, 1, 0, 0, 0, 200, 2, 0, 0, 3, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		var ring window
		var ref shiftWindow
		for step := 0; step < 512 && len(script) >= 5; step, script = step+1, script[5:] {
			mode, v := script[0], binary.BigEndian.Uint32(script[1:5])
			var c uint32
			switch mode % 4 {
			case 0:
				c = v
			case 1:
				c = ref.top + v%2048
			case 2:
				c = ref.top - v%2048
			case 3:
				c = math.MaxUint32 - v%4096
			}
			if mode&4 != 0 {
				c += WindowBits + v%WindowBits
			}
			got, want := ring.admit(c), ref.admit(c)
			if got != want || ring.top != ref.top || ring.occupancy() != ref.occupancy() {
				t.Fatalf("step %d, counter %d: ring admit %v top %d occupancy %d, shifting admit %v top %d occupancy %d",
					step, c, got, ring.top, ring.occupancy(), want, ref.top, ref.occupancy())
			}
		}
	})
}
