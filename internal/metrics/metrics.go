// Package metrics provides lightweight counters, gauges, and histograms
// for simulation and live-runtime instrumentation. A Registry namespaces
// instruments by name and can snapshot or merge, which is how per-node
// statistics roll up into network-wide experiment results.
//
// All instruments are safe for concurrent use so the same code paths work
// under the single-threaded simulator and the goroutine-per-node live
// runtime.
package metrics

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. It is lock-free
// (sync/atomic): counters sit on the engine's per-frame hot paths, which
// under the goroutine-per-node live runtime are bumped concurrently with
// metric scrapes, and a mutex there measurably serializes nodes (see
// BenchmarkCounterParallel).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value, stored lock-free as float64
// bits in a uint64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram collects float64 samples into a fixed set of log-linear
// buckets (HDR-style): subBuckets per power of two, of which it keeps
// only those a sample has hit, so its bytes do not grow with the sample
// count. Count, sum, min and max are exact; the sum
// is a running sum in observation order. Quantile answers nearest-rank
// from the buckets: for a sample whose magnitude lies in the window
// [2^minExp, 2^maxExp) the answer is within 1/subBuckets (< 0.79 %) of
// it, rounded toward zero, every integer in [0, 256) is exact, and p = 0
// and p = 1 give the exact min and max. NaN is dropped and not counted;
// ±Inf and other magnitudes outside the window land in the window's edge
// buckets, where min and max still report them exactly. Zero and
// negatives have buckets of their own.
type Histogram struct {
	mu sync.Mutex
	d  dist
}

const (
	// subBits is log2 of subBuckets: a bucket key is a magnitude's
	// float64 exponent and the top subBits bits of its mantissa.
	subBits    = 7
	subBuckets = 1 << subBits
	// minExp and maxExp bound the exponent window, which holds every
	// duration this repo records, in ms or ns: 2^-24 ms is 0.06 ns and
	// 2^48 ns is 78 hours.
	minExp = -24
	maxExp = 48
	// keyShift drops the mantissa bits below the sub-bucket.
	keyShift = 52 - subBits
	keyLo    = (minExp + 1023) << subBits
	keyHi    = (maxExp+1023)<<subBits - 1
	// windowKeys is how many keys the window holds.
	windowKeys = keyHi - keyLo + 1
	// maxBucketBytes is the worst case of one histogram's bucket arrays:
	// every key of the window, for each sign, as a 4 B key and an 8 B
	// count. Growth never reserves room past windowKeys.
	maxBucketBytes = 2 * windowKeys * (4 + 8)
)

// keyOf returns the bucket key of magnitude m > 0, clamped into the
// window. Keys ascend with magnitude.
func keyOf(m float64) int32 {
	return int32(min(max(int(math.Float64bits(m)>>keyShift), keyLo), keyHi))
}

// floorOf returns the smallest magnitude of key k's bucket.
func floorOf(k int32) float64 { return math.Float64frombits(uint64(k) << keyShift) }

// dist is a Histogram's state, without its lock.
type dist struct {
	n, zeros uint64
	sum      float64
	min, max float64
	pos, neg buckets // by magnitude: neg holds -v for each v < 0
}

// buckets holds the keys a sample has hit, ascending, and their counts.
// A wall-clock histogram scatters over a wide span, of which a dense
// array would be mostly zeros.
type buckets struct {
	keys   []int32
	counts []uint64
}

// inc counts one sample at key k.
func (b *buckets) inc(k int32) {
	i, found := slices.BinarySearch(b.keys, k)
	if found {
		b.counts[i]++
		return
	}
	if len(b.keys) == cap(b.keys) {
		// Grow by an eighth, not by append's doubling, and never past the
		// window: a doubled array is mostly empty, and maxBucketBytes
		// stays the worst case.
		n := min(len(b.keys)+len(b.keys)/8+1, windowKeys)
		b.keys = append(make([]int32, 0, n), b.keys...)
		b.counts = append(make([]uint64, 0, n), b.counts...)
	}
	b.keys = slices.Insert(b.keys, i, k)
	b.counts = slices.Insert(b.counts, i, 1)
}

// merge adds o's counts into b: in place when b holds every key o does,
// otherwise into arrays rebuilt at the union's exact size.
func (b *buckets) merge(o *buckets) {
	union := len(b.keys)
	for _, k := range o.keys {
		if _, found := slices.BinarySearch(b.keys, k); !found {
			union++
		}
	}
	if union == len(b.keys) {
		for j, k := range o.keys {
			i, _ := slices.BinarySearch(b.keys, k)
			b.counts[i] += o.counts[j]
		}
		return
	}
	keys, counts := make([]int32, 0, union), make([]uint64, 0, union)
	i, j := 0, 0
	for i < len(b.keys) || j < len(o.keys) {
		switch {
		case j == len(o.keys) || i < len(b.keys) && b.keys[i] < o.keys[j]:
			keys, counts = append(keys, b.keys[i]), append(counts, b.counts[i])
			i++
		case i == len(b.keys) || o.keys[j] < b.keys[i]:
			keys, counts = append(keys, o.keys[j]), append(counts, o.counts[j])
			j++
		default:
			keys, counts = append(keys, b.keys[i]), append(counts, b.counts[i]+o.counts[j])
			i, j = i+1, j+1
		}
	}
	b.keys, b.counts = keys, counts
}

func (d *dist) observe(v float64) {
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
		d.pos.inc(keyOf(v))
	case v < 0:
		d.neg.inc(keyOf(-v))
	default:
		d.zeros++
	}
}

func (d *dist) merge(o *dist) {
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

// quantile walks the buckets in value order to the one holding the
// nearest-rank sample and answers its bound nearest zero, clamped to
// [min, max].
func (d *dist) quantile(p float64) float64 {
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
			return clamp(-floorOf(d.neg.keys[i]))
		}
		rank -= d.neg.counts[i]
	}
	if rank <= d.zeros {
		return 0
	}
	rank -= d.zeros
	for i, c := range d.pos.counts {
		if rank <= c {
			return clamp(floorOf(d.pos.keys[i]))
		}
		rank -= c
	}
	return d.max
}

// Observe records one sample; NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.d.observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds, the convention for
// latency instruments in this repo.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.d.n)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.sum
}

// Mean returns the sample mean, or NaN with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.d.n == 0 {
		return math.NaN()
	}
	return h.d.sum / float64(h.d.n)
}

// Quantile returns the p-quantile (0 <= p <= 1) by nearest rank, within
// the bound stated on Histogram, or NaN with no samples.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.quantile(p)
}

// Max returns the largest sample, or NaN with no samples.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// clone returns a deep copy of h's state.
func (h *Histogram) clone() dist {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.d
	for _, b := range []*buckets{&d.pos, &d.neg} {
		b.keys, b.counts = slices.Clone(b.keys), slices.Clone(b.counts)
	}
	return d
}

// Registry is a namespace of instruments, lazily created on first use.
// New instruments are carved from per-kind slabs rather than allocated
// one by one: a simulation builds a registry per node, and instrument
// construction dominated node-setup allocation profiles before slabbing.
// Pointers into a slab stay valid forever — exhausted slabs are simply
// abandoned to the instruments they back.
type Registry struct {
	mu            sync.Mutex
	counters      map[string]*Counter
	gauges        map[string]*Gauge
	histograms    map[string]*Histogram
	counterSlab   []Counter
	gaugeSlab     []Gauge
	histogramSlab []Histogram
}

// slabSize is how many counters or gauges a slab holds: the node engine
// pre-registers ~20 counters, so one slab usually serves a whole node.
// histogramSlabSize is the same for histograms, which are 144 B each and
// of which a node registers three.
const (
	slabSize          = 24
	histogramSlabSize = 4
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		if len(r.counterSlab) == 0 {
			r.counterSlab = make([]Counter, slabSize)
		}
		c = &r.counterSlab[0]
		r.counterSlab = r.counterSlab[1:]
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		if len(r.gaugeSlab) == 0 {
			r.gaugeSlab = make([]Gauge, slabSize)
		}
		g = &r.gaugeSlab[0]
		r.gaugeSlab = r.gaugeSlab[1:]
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if len(r.histogramSlab) == 0 {
			r.histogramSlab = make([]Histogram, histogramSlabSize)
		}
		h = &r.histogramSlab[0]
		r.histogramSlab = r.histogramSlab[1:]
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a flat name → value view: counters and gauges as-is,
// histograms expanded to .count/.mean/.p50/.p99/.max.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name+".count"] = float64(h.Count())
		if h.Count() > 0 {
			out[name+".mean"] = h.Mean()
			out[name+".p50"] = h.Quantile(0.5)
			out[name+".p99"] = h.Quantile(0.99)
			out[name+".max"] = h.Max()
		}
	}
	return out
}

// Merge folds other's counters and histograms into r, prefixing names
// with the given prefix (e.g. "node.0003."): counters and histogram
// buckets, counts and sums add. Gauges are copied under the prefixed name.
func (r *Registry) Merge(prefix string, other *Registry) {
	other.mu.Lock()
	type kc struct {
		name string
		v    uint64
	}
	type kg struct {
		name string
		v    float64
	}
	type kh struct {
		name string
		d    dist
	}
	var cs []kc
	var gs []kg
	var hs []kh
	for name, c := range other.counters {
		cs = append(cs, kc{name, c.Value()})
	}
	for name, g := range other.gauges {
		gs = append(gs, kg{name, g.Value()})
	}
	for name, h := range other.histograms {
		hs = append(hs, kh{name, h.clone()})
	}
	other.mu.Unlock()

	for _, c := range cs {
		r.Counter(prefix + c.name).Add(c.v)
	}
	for _, g := range gs {
		r.Gauge(prefix + g.name).Set(g.v)
	}
	for _, h := range hs {
		dst := r.Histogram(prefix + h.name)
		dst.mu.Lock()
		dst.d.merge(&h.d)
		dst.mu.Unlock()
	}
}
