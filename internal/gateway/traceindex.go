package gateway

import (
	"math/rand/v2"

	"repro/internal/trace"
)

// traceIndex finds a trace ID in an array its owner holds — the spool's
// horizon ring, the backend's receipts — without storing the ID twice.
// It is an open-addressing table of uint32 entries, each an array
// position plus one (0 = empty), probed linearly from the slot the ID
// hashes to. The table is a power of two and at most half full, so a
// probe run stays short, and a removal shifts the run behind it back
// instead of leaving a tombstone. The hash is a 64-bit finalizer of the
// ID mixed with a per-index random seed: trace IDs come off the network,
// and a sender that does not know the seed cannot pick IDs that collide.
// An owner holds fewer than 2³² entries.
type traceIndex struct {
	table []uint32 // position + 1 of an indexed ID, 0 = empty
	n     int      // entries in use
	seed  uint64
	key   func(pos int) trace.TraceID // the ID at a position of the owner's array
}

// minIndexTable is the first table's size.
const minIndexTable = 16

func newTraceIndex(key func(pos int) trace.TraceID) traceIndex {
	return traceIndex{seed: rand.Uint64(), key: key}
}

// home is the slot id's probe run starts from.
func (x *traceIndex) home(id trace.TraceID) int {
	h := uint64(id) ^ x.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h & uint64(len(x.table)-1))
}

// has reports whether the owner's array holds id at an indexed position.
func (x *traceIndex) has(id trace.TraceID) bool {
	if x.n == 0 {
		return false
	}
	mask := len(x.table) - 1
	for i := x.home(id); x.table[i] != 0; i = (i + 1) & mask {
		if x.key(int(x.table[i]-1)) == id {
			return true
		}
	}
	return false
}

// add indexes the ID at pos, which the index does not hold.
func (x *traceIndex) add(pos int) {
	if 2*(x.n+1) > len(x.table) {
		x.grow()
	}
	x.place(uint32(pos) + 1)
	x.n++
}

// place puts entry e in the first empty slot of its ID's probe run.
func (x *traceIndex) place(e uint32) {
	mask := len(x.table) - 1
	i := x.home(x.key(int(e - 1)))
	for x.table[i] != 0 {
		i = (i + 1) & mask
	}
	x.table[i] = e
}

// grow doubles the table and places every entry again.
func (x *traceIndex) grow() {
	old := x.table
	x.table = make([]uint32, max(2*len(old), minIndexTable))
	for _, e := range old {
		if e != 0 {
			x.place(e)
		}
	}
}

// remove drops pos, whose ID is still there to hash, from the index. Each
// entry after it in the probe run that may live in the freed slot — its
// run starts at or before the slot — moves back into it, and the slot it
// left is the next one freed, so every ID stays reachable from its home.
func (x *traceIndex) remove(pos int) {
	mask, e := len(x.table)-1, uint32(pos)+1
	i := x.home(x.key(pos))
	for x.table[i] != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.table[j] != 0; j = (j + 1) & mask {
		if h := x.home(x.key(int(x.table[j] - 1))); (j-h)&mask >= (j-i)&mask {
			x.table[i], i = x.table[j], j
		}
	}
	x.table[i] = 0
	x.n--
}
