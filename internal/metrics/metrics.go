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
	"sort"
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

// Histogram collects float64 samples and answers summary statistics.
// Samples are retained in full: simulation scales are small enough that
// exact quantiles beat approximation error in experiment output.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
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
	return len(h.samples)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s
}

// Mean returns the sample mean, or NaN with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range h.samples {
		s += v
	}
	return s / float64(len(h.samples))
}

// Quantile returns the p-quantile (0 <= p <= 1) by nearest-rank on the
// sorted samples, or NaN with no samples.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// Max returns the largest sample, or NaN with no samples.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

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

// slabSize is how many instruments of one kind a slab holds. The node
// engine pre-registers ~20 instruments, so one slab usually serves a
// whole node.
const slabSize = 24

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
			r.histogramSlab = make([]Histogram, slabSize)
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

// Merge folds other's counters and histogram samples into r, prefixing
// names with the given prefix (e.g. "node.0003."). Gauges are copied under
// the prefixed name.
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
		name    string
		samples []float64
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
		h.mu.Lock()
		hs = append(hs, kh{name, append([]float64(nil), h.samples...)})
		h.mu.Unlock()
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
		for _, v := range h.samples {
			dst.Observe(v)
		}
	}
}
