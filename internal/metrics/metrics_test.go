package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := h.Sum(); got != 15 {
		t.Errorf("sum = %v, want 15", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := h.Max(); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram stats should be NaN")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5) // forces sort
	h.Observe(1)
	if got := h.Quantile(0); got != 1 {
		t.Errorf("min after re-observe = %v, want 1", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Millisecond)
	if got := h.Max(); got != 1500 {
		t.Errorf("duration sample = %v ms, want 1500", got)
	}
}

// TestHistogramQuantileProperty: quantiles are monotone in p and end at
// the max.
func TestHistogramQuantileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) {
				v = 0
			}
			h.Observe(v)
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			q := h.Quantile(p)
			if q < prev {
				return false
			}
			prev = q
		}
		return h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegistryLazyCreation(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("tx")
	c1.Inc()
	if got := r.Counter("tx").Value(); got != 1 {
		t.Errorf("re-fetched counter = %d, want 1", got)
	}
	if r.Counter("rx").Value() != 0 {
		t.Error("fresh counter should be zero")
	}
	r.Gauge("depth").Set(3)
	if got := r.Gauge("depth").Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("tx").Add(7)
	r.Gauge("queue").Set(2)
	r.Histogram("latency").Observe(10)
	r.Histogram("latency").Observe(20)
	snap := r.Snapshot()
	if snap["tx"] != 7 {
		t.Errorf("snapshot tx = %v, want 7", snap["tx"])
	}
	if snap["queue"] != 2 {
		t.Errorf("snapshot queue = %v, want 2", snap["queue"])
	}
	if snap["latency.count"] != 2 || snap["latency.mean"] != 15 {
		t.Errorf("snapshot latency = %v/%v, want 2/15", snap["latency.count"], snap["latency.mean"])
	}
}

func TestRegistryMerge(t *testing.T) {
	parent := NewRegistry()
	child := NewRegistry()
	child.Counter("tx").Add(3)
	child.Gauge("queue").Set(1)
	child.Histogram("latency").Observe(5)
	parent.Merge("node1.", child)
	parent.Merge("node2.", child)
	snap := parent.Snapshot()
	if snap["node1.tx"] != 3 || snap["node2.tx"] != 3 {
		t.Errorf("merged counters = %v", snap)
	}
	if snap["node1.latency.count"] != 1 {
		t.Errorf("merged histogram = %v", snap)
	}
}

// TestRegistryMergeAllKinds covers all three instrument kinds plus the
// collision cases Merge must get right: merging twice under the same
// prefix accumulates counters and histogram samples but overwrites
// gauges, and a prefixed name that collides with an existing instrument
// folds into it rather than clobbering it.
func TestRegistryMergeAllKinds(t *testing.T) {
	parent := NewRegistry()
	child := NewRegistry()
	child.Counter("tx").Add(3)
	child.Gauge("queue").Set(7)
	child.Histogram("lat").Observe(10)
	child.Histogram("lat").Observe(20)

	parent.Merge("n1.", child)
	parent.Merge("n1.", child) // same prefix again
	snap := parent.Snapshot()
	if snap["n1.tx"] != 6 {
		t.Errorf("counter re-merge = %v, want accumulated 6", snap["n1.tx"])
	}
	if snap["n1.queue"] != 7 {
		t.Errorf("gauge re-merge = %v, want overwritten 7", snap["n1.queue"])
	}
	if snap["n1.lat.count"] != 4 || snap["n1.lat.mean"] != 15 {
		t.Errorf("histogram re-merge = %v/%v, want 4 samples mean 15",
			snap["n1.lat.count"], snap["n1.lat.mean"])
	}

	// Prefix collision: parent already owns "n2.tx"; merging child under
	// "n2." must fold into the existing counter.
	parent.Counter("n2.tx").Add(100)
	parent.Merge("n2.", child)
	if got := parent.Counter("n2.tx").Value(); got != 103 {
		t.Errorf("collision merge = %d, want 103", got)
	}

	// Empty prefix merges names verbatim.
	parent.Merge("", child)
	if got := parent.Counter("tx").Value(); got != 3 {
		t.Errorf("unprefixed merge = %d, want 3", got)
	}
}

// TestSnapshotZeroSampleHistogram: a histogram that exists but has no
// samples exports only its .count key — no NaN mean/quantiles leak into
// the flat view.
func TestSnapshotZeroSampleHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat")
	snap := r.Snapshot()
	if got, ok := snap["lat.count"]; !ok || got != 0 {
		t.Errorf("lat.count = %v, %v; want 0, present", got, ok)
	}
	for _, key := range []string{"lat.mean", "lat.p50", "lat.p99", "lat.max"} {
		if v, ok := snap[key]; ok {
			t.Errorf("zero-sample histogram leaked %s = %v", key, v)
		}
	}
}

// mutexCounter is the pre-atomic implementation, kept as the benchmark
// baseline so the atomic win stays measured.
type mutexCounter struct {
	mu sync.Mutex
	v  uint64
}

func (c *mutexCounter) Inc() {
	c.mu.Lock()
	c.v++
	c.mu.Unlock()
}

func BenchmarkCounterParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
	if c.Value() == 0 {
		b.Fatal("counter never incremented")
	}
}

func BenchmarkMutexCounterParallel(b *testing.B) {
	var c mutexCounter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Errorf("shared counter = %d, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
}
