package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// denseDist is the histogram state this package kept before buckets went
// sparse: one dense array of counts per sign over every key from the
// lowest seen to the highest. FuzzHistogramMatchesDense holds Histogram
// to it.
type denseDist struct {
	n, zeros uint64
	sum      float64
	min, max float64
	pos, neg denseBuckets
}

// denseBuckets counts the keys [lo, lo+len(counts)).
type denseBuckets struct {
	lo     int
	counts []uint64
}

func (b *denseBuckets) cover(lo, hi int) {
	if len(b.counts) == 0 {
		b.lo, b.counts = lo, make([]uint64, hi-lo+1)
		return
	}
	top := b.lo + len(b.counts) - 1
	if lo >= b.lo && hi <= top {
		return
	}
	nlo, nhi := min(lo, b.lo), max(hi, top)
	c := make([]uint64, nhi-nlo+1)
	copy(c[b.lo-nlo:], b.counts)
	b.lo, b.counts = nlo, c
}

func (b *denseBuckets) inc(k int) {
	if k < b.lo || k >= b.lo+len(b.counts) {
		b.cover(k, k)
	}
	b.counts[k-b.lo]++
}

func (b *denseBuckets) merge(o *denseBuckets) {
	if len(o.counts) == 0 {
		return
	}
	b.cover(o.lo, o.lo+len(o.counts)-1)
	for i, c := range o.counts {
		b.counts[o.lo-b.lo+i] += c
	}
}

func (d *denseDist) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	switch {
	case v > 0:
		d.pos.inc(int(keyOf(v)))
	case v < 0:
		d.neg.inc(int(keyOf(-v)))
	default:
		d.zeros++
	}
}

func (d *denseDist) merge(o *denseDist) {
	if o.n == 0 {
		return
	}
	if d.n == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.n == 0 || o.max > d.max {
		d.max = o.max
	}
	d.n += o.n
	d.zeros += o.zeros
	d.sum += o.sum
	d.pos.merge(&o.pos)
	d.neg.merge(&o.neg)
}

func (d *denseDist) quantile(p float64) float64 {
	if d.n == 0 || !(p >= 0 && p <= 1) {
		return math.NaN()
	}
	rank := uint64(math.Ceil(p * float64(d.n)))
	if rank <= 1 {
		return d.min
	}
	if rank >= d.n {
		return d.max
	}
	clamp := func(v float64) float64 { return min(max(v, d.min), d.max) }
	for i := len(d.neg.counts) - 1; i >= 0; i-- {
		if rank <= d.neg.counts[i] {
			return clamp(-floorOf(int32(d.neg.lo + i)))
		}
		rank -= d.neg.counts[i]
	}
	if rank <= d.zeros {
		return 0
	}
	rank -= d.zeros
	for i, c := range d.pos.counts {
		if rank <= c {
			return clamp(floorOf(int32(d.pos.lo + i)))
		}
		rank -= c
	}
	return d.max
}

// snapshot is what Registry.Snapshot reports for a histogram named name.
func (d *denseDist) snapshot(name string, out map[string]float64) {
	out[name+".count"] = float64(d.n)
	if d.n > 0 {
		out[name+".mean"] = d.sum / float64(d.n)
		out[name+".p50"] = d.quantile(0.5)
		out[name+".p99"] = d.quantile(0.99)
		out[name+".max"] = d.quantile(1)
	}
}

// sameFloat reports whether a and b are the same float64, NaN included.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzHistogramMatchesDense reads ops from data, 9 bytes each: an op byte
// and a float64. Most observe the float into one of three registries'
// histogram "h"; one in four merges one registry into another through
// Registry.Merge. After every op, each histogram's count, sum, mean and
// quantiles must be bit-identical to the dense reference fed the same
// ops, and so must every registry's Snapshot; its bucket bytes may pass
// 12 B a key hit only by the growth slack, an eighth.
func FuzzHistogramMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 6; seed++ {
		var data []byte
		for i := 0; i < 40*(seed+1); i++ {
			data = append(data, byte(rng.Intn(256)))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(drawSample(rng, seed%2 == 0)))
		}
		f.Add(data)
	}
	ps := []float64{0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		const hists = 3
		var regs [hists]*Registry
		var ref [hists]denseDist
		for i := range regs {
			regs[i] = NewRegistry()
			regs[i].Histogram("h")
		}
		for len(data) >= 9 {
			op, v := data[0], math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			i := int(op>>2) % hists
			if op&3 == 3 {
				j := (i + 1 + int(op>>4)%(hists-1)) % hists
				regs[j].Merge("", regs[i])
				ref[j].merge(&ref[i])
			} else {
				regs[i].Histogram("h").Observe(v)
				ref[i].observe(v)
			}
			for k, r := range regs {
				h, d := r.Histogram("h"), &ref[k]
				if uint64(h.Count()) != d.n || !sameFloat(h.Sum(), d.sum) {
					t.Fatalf("histogram %d: count %d sum %v, dense %d %v", k, h.Count(), h.Sum(), d.n, d.sum)
				}
				for _, p := range ps {
					if got, want := h.Quantile(p), d.quantile(p); !sameFloat(got, want) {
						t.Fatalf("histogram %d: Quantile(%v) = %v, dense %v", k, p, got, want)
					}
				}
				hits := 0
				for _, c := range append(slices.Clone(d.pos.counts), d.neg.counts...) {
					if c != 0 {
						hits++
					}
				}
				if got := bucketBytes(r); got > 12*(hits+hits/8+2) {
					t.Fatalf("histogram %d: %d bucket bytes for %d keys hit", k, got, hits)
				}
				snap, want := r.Snapshot(), map[string]float64{}
				d.snapshot("h", want)
				if len(snap) != len(want) {
					t.Fatalf("histogram %d: Snapshot %v, dense %v", k, snap, want)
				}
				for name, w := range want {
					if got, ok := snap[name]; !ok || !sameFloat(got, w) {
						t.Fatalf("histogram %d: Snapshot[%s] = %v, dense %v", k, name, got, w)
					}
				}
			}
		}
	})
}
