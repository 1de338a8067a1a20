package gateway

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// oldestFirst returns the horizon's IDs in the order it forgets them.
func (h *horizon) oldestFirst() []trace.TraceID {
	return append(slices.Clone(h.ids[h.head:]), h.ids[:h.head]...)
}

// appendOnly is the backend's use of the index: every ID ever added stays,
// at the position it was appended to.
type appendOnly struct {
	ids []trace.TraceID
	idx traceIndex
}

func newAppendOnly(seed uint64) *appendOnly {
	a := &appendOnly{}
	a.idx = traceIndex{seed: seed, key: func(pos int) trace.TraceID { return a.ids[pos] }}
	return a
}

func (a *appendOnly) add(id trace.TraceID) {
	a.ids = append(a.ids, id)
	a.idx.add(len(a.ids) - 1)
}

// checkIndex demands that x indexes every position of ids once, in a
// table at most half full, each entry reachable from its ID's home slot
// without crossing an empty one.
func checkIndex(t *testing.T, x *traceIndex, ids []trace.TraceID) {
	t.Helper()
	seen, mask := make([]bool, len(ids)), len(x.table)-1
	for slot, e := range x.table {
		if e == 0 {
			continue
		}
		p := int(e - 1)
		if p >= len(ids) || seen[p] {
			t.Fatalf("slot %d holds position %d: past the owner's %d or twice", slot, p, len(ids))
		}
		seen[p] = true
		for i := x.home(ids[e-1]); i != slot; i = (i + 1) & mask {
			if x.table[i] == 0 {
				t.Fatalf("ID %v in slot %d: its run from slot %d breaks at empty slot %d", ids[e-1], slot, x.home(ids[e-1]), i)
			}
		}
	}
	if x.n != len(ids) || 2*x.n > len(x.table) || slices.Contains(seen, false) {
		t.Fatalf("index counts %d entries in a table of %d, owner holds %d, indexed %v", x.n, len(x.table), len(ids), seen)
	}
	for _, id := range ids {
		if !x.has(id) {
			t.Fatalf("ID %v is held but not found", id)
		}
	}
}

// fuzzTraceID maps a byte to a nonzero ID: 1 to 64 in one of four 16-bit
// lanes, so that IDs share their low or high halves.
func fuzzTraceID(b byte) trace.TraceID {
	return trace.TraceID(uint64(b&0x3f+1) << (16 * uint(b>>6)))
}

// FuzzTraceIndex drives a spool horizon (bounded: it forgets its oldest
// ID) and an append-only owner (unbounded, as the backend uses it) with
// the same inserts and lookups, against a map and a FIFO, and checks
// after every step what each holds, in which order the horizon will
// forget it, and every ID the step named or the horizon forgot.
func FuzzTraceIndex(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 1, 3, 1, 1, 0, 2, 0, 5, 1, 6, 1, 7})
	f.Add([]byte{0, 1, 0x40, 1, 0x80, 1, 0xc0, 1, 0x40, 0, 0x40})
	f.Add([]byte("121A1C10")) // a removal whose run holds an entry that must shift back
	f.Add([]byte{15, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1, 12, 1, 13, 1, 14, 1, 15, 1, 16, 1, 17, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity, seed := 1+int(data[0]%16), uint64(data[1])
		h := newHorizon(capacity)
		h.idx.seed = seed
		all := newAppendOnly(seed)
		var fifo []trace.TraceID
		inFIFO, inAll := map[trace.TraceID]bool{}, map[trace.TraceID]bool{}
		for i := 2; i+1 < len(data); i += 2 {
			id, forgot := fuzzTraceID(data[i+1]), trace.TraceID(0)
			if data[i]%3 != 0 {
				if !inFIFO[id] {
					if fifo = append(fifo, id); len(fifo) > capacity {
						forgot = fifo[0]
						delete(inFIFO, forgot)
						fifo = fifo[1:]
					}
					inFIFO[id] = true
				}
				h.remember(id)
				if !inAll[id] {
					inAll[id] = true
					all.add(id)
				}
			}
			if got := h.oldestFirst(); !slices.Equal(got, fifo) {
				t.Fatalf("step %d: horizon holds %v oldest first, model %v", i/2, got, fifo)
			}
			for _, q := range []trace.TraceID{id, forgot} {
				if h.has(q) != inFIFO[q] {
					t.Fatalf("step %d: horizon has(%v) = %v, model %v", i/2, q, h.has(q), inFIFO[q])
				}
				if all.idx.has(q) != inAll[q] {
					t.Fatalf("step %d: append-only has(%v) = %v, model %v", i/2, q, all.idx.has(q), inAll[q])
				}
			}
			checkIndex(t, &h.idx, h.ids)
			checkIndex(t, &all.idx, all.ids)
		}
	})
}

// TestTraceIndexProbesStayShort fills a table to its most crowded, half
// full, with IDs shaped the way hashing on raw bits would pile up: the
// sequential IDs a load generator offers, IDs strided by the table size,
// and IDs that share their low 32 bits. The finalizer spreads each shape
// like random keys, so no ID sits far from the slot it hashes to.
func TestTraceIndexProbesStayShort(t *testing.T) {
	const n, maxProbe = 1 << 15, 40
	shapes := []struct {
		name string
		id   func(i int) trace.TraceID
	}{
		{"sequential", func(i int) trace.TraceID { return trace.TraceID(i + 1) }},
		{"strided by the table size", func(i int) trace.TraceID { return trace.TraceID(uint64(i+1) * 2 * n) }},
		{"same low 32 bits", func(i int) trace.TraceID { return trace.TraceID(uint64(i+1)<<32 | 0x9e3779b9) }},
	}
	for _, shape := range shapes {
		for seed := uint64(0); seed < 4; seed++ {
			a := newAppendOnly(seed)
			for i := 0; i < n; i++ {
				a.add(shape.id(i))
			}
			if len(a.idx.table) != 2*n {
				t.Fatalf("%d IDs sit in a table of %d, want %d", n, len(a.idx.table), 2*n)
			}
			longest, mask := 0, len(a.idx.table)-1
			for slot, e := range a.idx.table {
				if e != 0 {
					longest = max(longest, 1+(slot-a.idx.home(a.ids[e-1]))&mask)
				}
			}
			t.Logf("%s, seed %d: longest probe %d", shape.name, seed, longest)
			if longest > maxProbe {
				t.Errorf("%s, seed %d: an ID sits %d probes from its home, bound %d", shape.name, seed, longest, maxProbe)
			}
		}
	}
}

// TestSpoolHorizonBytesPerID is the horizon's heap fence: a full 8192-ID
// horizon that has churned through twice as many more holds at most 16
// bytes an ID — its ring and an index table twice its size — where a map
// and an order slice held about 68. What the spool holds without a
// horizon is measured on an empty one and taken off. It measures the
// live heap after a collection, so it must not run beside other tests.
func TestSpoolHorizonBytesPerID(t *testing.T) {
	// slack is what the runtime allocates beside the test between two
	// readings, tens of bytes; the ring and the table are exactly 16 B an
	// ID, so the bound allows a kilobyte of it.
	const n, maxBytes, slack = 8192, 16, 1 << 10
	reg := metrics.NewRegistry()
	held := func(ids int) int64 {
		before := liveHeap()
		s, err := openSpool("", 4, n, reg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ids; i++ {
			s.add(testReading(i))
			ackHead(s, 1)
		}
		after := liveHeap()
		if want := min(ids, n); len(s.seen.ids) != want {
			t.Fatalf("horizon holds %d IDs, want %d", len(s.seen.ids), want)
		}
		return after - before
	}
	// Two collections first: a sync.Pool's contents outlive one, and
	// their freeing would fall inside the first reading. Then the least of
	// three runs each.
	liveHeap()
	liveHeap()
	empty, full := held(0), held(3*n)
	for i := 1; i < 3; i++ {
		empty, full = min(empty, held(0)), min(full, held(3*n))
	}
	t.Logf("%.3f bytes per horizon ID", float64(full-empty)/n)
	if full-empty > maxBytes*n+slack {
		t.Fatalf("a full horizon holds %d B for %d IDs, want at most %d B an ID", full-empty, n, maxBytes)
	}
}
