package citysim

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// TestDeliveryLogBytes fences the delivery log's footprint: on a
// 2 000-node city at two shards over ten virtual minutes, a delivery costs
// at most 14 B of log under proactive routing and at most 10 B under ICN,
// where every record's origin is its sink; a deliveryRec is 24.
func TestDeliveryLogBytes(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		max      float64
	}{{"proactive", 14}, {"icn", 10}} {
		s, err := New(Config{Nodes: 2000, Shards: 2, Seed: 1, Strategy: tc.strategy})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var bytes int
		for _, sh := range s.shards {
			bytes += len(sh.deliveries.buf)
		}
		n := s.Stats().Delivered
		per := float64(bytes) / float64(n)
		t.Logf("%s: %d deliveries in %d B, %.2f B a delivery", tc.strategy, n, bytes, per)
		if n == 0 || per > tc.max {
			t.Errorf("%s: %d deliveries cost %.2f B each, want at most %v", tc.strategy, n, per, tc.max)
		}
	}
}

// deliverySeed packs records as FuzzDeliveryLogRoundTrip reads them: 24
// bytes each, atNs, bornNs, sink and origin, little-endian.
func deliverySeed(recs ...deliveryRec) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.atNs))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.bornNs))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.sink))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.origin))
	}
	return b
}

// FuzzDeliveryLogRoundTrip searches for a sequence of records the
// delivery log does not give back as it was appended: any instants, in
// any order, any latency (an ICN cache hit has none, at == born), and any
// sink and origin, slots up to math.MaxInt32 and past it.
func FuzzDeliveryLogRoundTrip(f *testing.F) {
	s := int64(time.Second)
	f.Add([]byte{})
	f.Add(deliverySeed(
		deliveryRec{atNs: 10 * s, bornNs: 4 * s, sink: 3, origin: 700},
		deliveryRec{atNs: 2 * s, bornNs: s, sink: 700, origin: 3},     // at steps backwards
		deliveryRec{atNs: 7 * s, bornNs: 7 * s, sink: 12, origin: 12}, // a cache hit
	))
	f.Add(deliverySeed(
		deliveryRec{atNs: math.MaxInt64, bornNs: math.MinInt64, sink: math.MaxInt32, origin: 0},
		deliveryRec{atNs: math.MinInt64, bornNs: math.MaxInt64, sink: 0, origin: math.MaxInt32},
		deliveryRec{atNs: 0, bornNs: 1, sink: -1, origin: math.MinInt32},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []deliveryRec
		var l deliveryLog
		for ; len(data) >= 24; data = data[24:] {
			r := deliveryRec{
				atNs:   int64(binary.LittleEndian.Uint64(data)),
				bornNs: int64(binary.LittleEndian.Uint64(data[8:])),
				sink:   int32(binary.LittleEndian.Uint32(data[16:])),
				origin: int32(binary.LittleEndian.Uint32(data[20:])),
			}
			want = append(want, r)
			l.append(r)
		}
		prefix := []deliveryRec{{atNs: 1, bornNs: 2, sink: 3, origin: 4}}
		if got := l.appendTo(slices.Clone(prefix)); !slices.Equal(got, append(prefix, want...)) {
			t.Fatalf("appended %v, decoded %v", want, got[1:])
		}
	})
}
