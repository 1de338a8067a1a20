package meshsec

import "math/bits"

// WindowBits is the replay window width per origin: how far behind the
// highest authenticated counter a frame may arrive and still be
// accepted (once). LoRa meshes reorder across go-back-N retransmission
// rounds, so the window is generous; at ~1 frame/s it covers ~17 minutes
// of reordering per origin for 128 bytes of state.
const WindowBits = 1024

// window is a sliding replay window: the highest counter accepted from
// one origin plus a ring of WindowBits bits in which counter c lives at
// bit c mod WindowBits, so sliding forward clears only the bits the
// window moves past, not the whole bitmap. occ counts the bits set.
type window struct {
	top  uint32 // highest counter accepted; 0 = nothing yet
	occ  uint32
	bits [WindowBits / 64]uint64
}

// admit reports whether counter c should be accepted from this origin,
// and records it. Semantics:
//   - c > top: slide the window forward and accept.
//   - top-WindowBits < c <= top: accept the first time, reject duplicates.
//   - c <= top-WindowBits (or c == 0): reject as too old.
func (w *window) admit(c uint32) bool {
	if c == 0 {
		return false // 0 is "never sealed"; a real counter starts at 1
	}
	if c > w.top {
		w.clear(w.top+1, c)
		w.top = c
	} else if w.top-c >= WindowBits {
		return false
	}
	word, bit := c/64%(WindowBits/64), c%64
	if w.bits[word]&(1<<bit) != 0 {
		return false
	}
	w.bits[word] |= 1 << bit
	w.occ++
	return true
}

// occupancy counts the admitted counters the window currently remembers.
func (w *window) occupancy() int { return int(w.occ) }

// clear forgets the counters the window slides past as its top moves to
// hi: the ring bits of lo..hi, which held counters WindowBits older.
func (w *window) clear(lo, hi uint32) {
	if hi-lo >= WindowBits-1 {
		w.bits = [WindowBits / 64]uint64{}
		w.occ = 0
		return
	}
	for lo <= hi {
		word, bit := lo/64%(WindowBits/64), lo%64
		n := min(64-bit, hi-lo+1) // bits of this word in lo..hi
		mask := ^uint64(0) >> (64 - n) << bit
		w.occ -= uint32(bits.OnesCount64(w.bits[word] & mask))
		w.bits[word] &^= mask
		lo += n
		if lo == 0 {
			return // hi was the largest counter
		}
	}
}
