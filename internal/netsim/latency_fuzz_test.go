package netsim

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// FuzzFlowLatencies feeds any sequence of latencies (repeats,
// alternations, negative, huge) to two flows' run records, the first half
// to one and the rest to the other. MergeStats must expand them to the
// input in order, MeanLatency must equal the naive int64 mean, and the
// closed runs of a record whose latencies all lie in [0, 2^49) ns may
// cost at most the 8 B a delivery a []time.Duration pays.
//
// The input is a script: a byte op, then for op&3 != 0 a varint latency
// delivered once; op&3 == 0 repeats the last latency (op>>2)%8 + 1 times.
func FuzzFlowLatencies(f *testing.F) {
	script := func(lats ...int64) []byte {
		var b []byte
		for _, l := range lats {
			b = binary.AppendVarint(append(b, 1), l)
		}
		return b
	}
	f.Add([]byte{})
	f.Add(script(215e6, 215e6, 215e6, 1e9, 215e6))
	f.Add(append(script(3e9), 0x1c, 0x1c, 0x1c))
	f.Add(script(1, 2, 1, 2, 1, 2, 1, 2))
	f.Add(script(1<<49-1, 0, 1<<49-1, 0, 1<<49-1))
	f.Add(script(-1, 0, -5e9, 1<<49-1, 1<<49, 1<<62, -1<<63, 1<<63-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lats []time.Duration
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op&3 == 0 {
				if len(lats) > 0 {
					for k := int(op>>2)%8 + 1; k > 0; k-- {
						lats = append(lats, lats[len(lats)-1])
					}
				}
				continue
			}
			l, n := binary.Varint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			lats = append(lats, time.Duration(l))
		}

		var a, b TrafficStats
		half := len(lats) / 2
		for _, l := range lats[:half] {
			a.delivered(l)
		}
		for _, l := range lats[half:] {
			b.delivered(l)
		}
		m := MergeStats([]*TrafficStats{&a, nil, &b})
		if !slices.Equal(m.Latencies, lats) || m.Delivered != len(lats) {
			t.Fatalf("MergeStats expands %d deliveries to %v, want %v", m.Delivered, m.Latencies, lats)
		}
		for _, c := range []struct {
			st   *TrafficStats
			lats []time.Duration
		}{{&a, lats[:half]}, {&b, lats[half:]}, {m, lats}} {
			var sum, want time.Duration
			for _, l := range c.lats {
				sum += l
			}
			if len(c.lats) > 0 {
				want = sum / time.Duration(len(c.lats))
			}
			if got := c.st.MeanLatency(); got != want {
				t.Fatalf("MeanLatency of %v = %v, want %v", c.lats, got, want)
			}
			// The open run sits in two fields; the closed ones are priced.
			inRange := !slices.ContainsFunc(c.lats, func(l time.Duration) bool { return l < 0 || l >= 1<<49 })
			if closed, bytes := len(c.lats)-c.st.lat.n, len(c.st.lat.buf); inRange && bytes > 8*closed {
				t.Fatalf("%d closed deliveries recorded in %d B, want at most 8 B each", closed, bytes)
			}
		}
	})
}
