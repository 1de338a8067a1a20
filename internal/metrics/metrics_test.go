package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
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
// the max, with NaN, ±Inf, zero and negatives mixed into the samples.
func TestHistogramQuantileProperty(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e-300, 1e300}
	gen := func(args []reflect.Value, rng *rand.Rand) {
		vals := make([]float64, rng.Intn(50))
		for i := range vals {
			if rng.Intn(4) == 0 {
				vals[i] = special[rng.Intn(len(special))]
			} else {
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			}
		}
		args[0] = reflect.ValueOf(vals)
	}
	f := func(vals []float64) bool {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		if h.Count() == 0 {
			return math.IsNaN(h.Quantile(0.5)) && math.IsNaN(h.Max())
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1} {
			q := h.Quantile(p)
			if !(q >= prev) {
				return false
			}
			prev = q
		}
		return h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Values: gen}); err != nil {
		t.Error(err)
	}
}

// TestHistogramNonFinite pins the inputs outside the ordinary: NaN is
// dropped and not counted; ±Inf and magnitudes outside the exponent
// window land in the edge buckets while min and max report them
// exactly; zero and negatives have buckets of their own.
func TestHistogramNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	if h.Count() != 0 || !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Mean()) {
		t.Fatalf("NaN counted: count %d, p0 %v", h.Count(), h.Quantile(0))
	}
	h.Observe(2)
	h.Observe(math.NaN())
	if h.Count() != 1 || h.Sum() != 2 || h.Mean() != 2 || h.Quantile(0) != 2 {
		t.Errorf("NaN leaked: count %d sum %v mean %v p0 %v", h.Count(), h.Sum(), h.Mean(), h.Quantile(0))
	}

	for _, vals := range [][]float64{
		{math.Inf(-1), 1, 2, 3, math.Inf(1)},
		{-1e300, -1, 2, 1e200, 1e300},
		{math.SmallestNonzeroFloat64, 1e-300, 1e-40, 1e-35, 1e-30},
	} {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		lo, hi := vals[0], vals[len(vals)-1]
		if h.Quantile(0) != lo || h.Max() != hi {
			t.Errorf("%v: min %v max %v", vals, h.Quantile(0), h.Max())
		}
		if q := h.Quantile(0.5); q < lo || q > hi {
			t.Errorf("%v: p50 %v outside [min, max]", vals, q)
		}
	}

	h = Histogram{}
	for _, v := range []float64{-5.5, 0, 0, 0, 7} {
		h.Observe(v)
	}
	for _, c := range []struct{ p, want float64 }{{0.2, -5.5}, {0.4, 0}, {0.6, 0}, {0.8, 0}, {1, 7}} {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// sliceHistogram is the histogram this package shipped before the
// buckets: every sample kept, nearest rank on the sorted samples. It is
// the exact model TestHistogramMatchesSortedModel holds Histogram to.
type sliceHistogram struct {
	samples []float64
	sorted  []float64 // a sorted copy of samples, nil when stale
}

func (m *sliceHistogram) Observe(v float64) {
	m.samples = append(m.samples, v)
	m.sorted = nil
}

func (m *sliceHistogram) Sum() float64 {
	var s float64
	for _, v := range m.samples {
		s += v
	}
	return s
}

func (m *sliceHistogram) Quantile(p float64) float64 {
	if m.sorted == nil {
		m.sorted = append([]float64(nil), m.samples...)
		sort.Float64s(m.sorted)
	}
	n := len(m.sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	return m.sorted[min(max(idx, 0), n-1)]
}

// drawSample mixes every class of input the buckets treat differently:
// zeros, small integers, negatives, subnormals, magnitudes spanning the
// exponent window and a little beyond it, and infinities.
func drawSample(rng *rand.Rand, inf bool) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(256))
	case 2:
		return -float64(rng.Intn(256))
	case 3:
		return float64(rng.Intn(1 << 20))
	case 4:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 5:
		if inf {
			return math.Inf(int(sign))
		}
	}
	e := minExp - 4 + rng.Intn(maxExp-minExp+8)
	return sign * math.Ldexp(1+rng.Float64(), e)
}

// TestHistogramMatchesSortedModel feeds Histogram and the exact model the
// same random streams: count, sum, min and max must be bit-identical,
// every quantile within the stated bound of the model's nearest-rank
// sample (exact for zero and integers in (-256, 256)), and merging k
// parts must answer exactly as observing their concatenation.
func TestHistogramMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Ldexp(1, minExp), math.Ldexp(1, maxExp)
	for stream := 0; stream < 100; stream++ {
		n := 1 + rng.Intn(400)
		inf := stream%3 == 0
		vals := make([]float64, n)
		var h Histogram
		var m sliceHistogram
		for i := range vals {
			vals[i] = drawSample(rng, inf)
			h.Observe(vals[i])
			m.Observe(vals[i])
		}
		if h.Count() != n || math.Float64bits(h.Sum()) != math.Float64bits(m.Sum()) {
			t.Fatalf("stream %d: count %d sum %v, model %d %v", stream, h.Count(), h.Sum(), n, m.Sum())
		}
		if h.Quantile(0) != m.Quantile(0) || h.Max() != m.Quantile(1) {
			t.Fatalf("stream %d: min %v max %v, model %v %v", stream, h.Quantile(0), h.Max(), m.Quantile(0), m.Quantile(1))
		}
		ps := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
		for r := 1; r <= n; r += 1 + n/16 {
			ps = append(ps, (float64(r)-0.5)/float64(n))
		}
		for _, p := range ps {
			q, x := h.Quantile(p), m.Quantile(p)
			a := math.Abs(x)
			ok := q >= m.Quantile(0) && q <= m.Quantile(1)
			switch {
			case x == math.Trunc(x) && a < 256:
				ok = q == x
			case a >= lo && a < hi:
				ok = math.Abs(q-x) < a/subBuckets
			}
			if !ok {
				t.Fatalf("stream %d: Quantile(%v) = %v, model %v", stream, p, q, x)
			}
		}

		parts := NewRegistry()
		for rest := vals; len(rest) > 0; {
			cut := 1 + rng.Intn(len(rest))
			part := NewRegistry()
			for _, v := range rest[:cut] {
				part.Histogram("h").Observe(v)
			}
			parts.Merge("", part)
			rest = rest[cut:]
		}
		merged := parts.Histogram("h")
		if merged.Count() != n {
			t.Fatalf("stream %d: merged count %d, want %d", stream, merged.Count(), n)
		}
		for _, p := range ps {
			if got, want := merged.Quantile(p), h.Quantile(p); got != want {
				t.Fatalf("stream %d: merged Quantile(%v) = %v, concatenation %v", stream, p, got, want)
			}
		}
	}
}

// bucketBytes is the bytes r's histograms hold in bucket arrays, keys
// and counts, counted by capacity.
func bucketBytes(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.histograms {
		h.mu.Lock()
		for _, b := range []*buckets{&h.d.pos, &h.d.neg} {
			n += 4*cap(b.keys) + 8*cap(b.counts)
		}
		h.mu.Unlock()
	}
	return n
}

// TestHistogramBytesIndependentOfCount: a histogram's bucket bytes follow
// the keys it has hit, never the count, so ten times the samples from one
// distribution leave a registry's bytes where they were (each
// distribution here hits all its keys within the first N), and no input
// takes a histogram past maxBucketBytes, whether observed or merged.
func TestHistogramBytesIndependentOfCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry()
	feed := func(n int) {
		for i := 0; i < n; i++ {
			r.Histogram("airtime_ms").Observe(50 + 350*rng.Float64())
			r.Histogram("rounds").Observe(float64(rng.Intn(6)))
			r.Histogram("wait_ms").Observe(float64(rng.Intn(2) * (1 + rng.Intn(800))))
			r.Histogram("skew_ms").Observe(float64(1-2*rng.Intn(2)) * (1 + 9*rng.Float64()))
		}
	}
	const n = 20000
	feed(n)
	before := bucketBytes(r)
	feed(9 * n)
	if after := bucketBytes(r); after != before {
		t.Errorf("bucket bytes %d after %d samples, %d after %d", before, n, after, 10*n)
	}

	w := NewRegistry()
	h := w.Histogram("whole window")
	for _, k := range []int32{keyLo, keyHi, keyLo + 1, keyHi - 1} {
		h.Observe(floorOf(k))
		h.Observe(-floorOf(k))
	}
	for k := int32(keyLo); k <= keyHi; k++ {
		h.Observe(floorOf(k))
		h.Observe(-floorOf(k))
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), 1e-300, -1e300, math.SmallestNonzeroFloat64} {
		h.Observe(v)
	}
	if got := bucketBytes(w); got != maxBucketBytes {
		t.Errorf("every key of the window holds %d bucket bytes, want maxBucketBytes = %d", got, maxBucketBytes)
	}
	if maxBucketBytes > 3*2*windowKeys*8/2 {
		t.Errorf("maxBucketBytes = %d, more than 1.5 times a dense array's %d", maxBucketBytes, 2*windowKeys*8)
	}
	// Halves of the window merged into one histogram: the union is built
	// at its exact size.
	m := NewRegistry()
	for half := int32(0); half < 2; half++ {
		part := NewRegistry()
		for k := int32(keyLo) + half; k <= keyHi; k += 2 {
			part.Histogram("h").Observe(floorOf(k))
			part.Histogram("h").Observe(-floorOf(k))
		}
		m.Merge("", part)
	}
	if got := bucketBytes(m); got != maxBucketBytes {
		t.Errorf("the merged window holds %d bucket bytes, want maxBucketBytes = %d", got, maxBucketBytes)
	}
}

// TestObserveAllocFree: once its key is present, Observe allocates
// nothing. Every key the measured calls hit is observed first.
func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	vals := []float64{0, -3, 1e-6, 0.5, 87.296, 399.616, 1e6}
	for i, v := range vals {
		h.Observe(v)
		h.Observe(v * 0.99)
		for us := i; us < 1000; us += len(vals) {
			h.ObserveDuration(time.Duration(us) * time.Microsecond)
		}
	}
	i := 0
	allocs := mallocs(1000, func() {
		h.Observe(vals[i%len(vals)] * 0.99)
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe allocated %d times in 1000 calls after warm-up, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = 50 + 350*rng.Float64()
	}
	var h Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i%len(vals)])
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

// TestRegistryConcurrent: observers and a scraper share one registry.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Errorf("shared counter = %d, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 4000 {
		t.Errorf("histogram count = %d, want 4000", got)
	}
	if got := r.Snapshot()["h.p50"]; got != 249 {
		t.Errorf("h.p50 = %v, want 249", got)
	}
}

// mallocs calls f once to warm up, then runs more times on one processor,
// and returns every heap allocation those runs made: testing.AllocsPerRun
// rounds its mean down, so it passes up to runs − 1 of them unseen.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
