package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the p-quantile (0..1) of an ascending slice by the
// nearest-rank rule, so the value is always one that was measured.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// overAir drops the zero-latency head of an ascending latency slice. An ICN
// interest answered from the requester's own content store never entered
// the path whose latency is measured; it counts toward pdr and the cache
// hit ratio instead. On every other workload nothing is dropped.
func overAir(sorted []float64) []float64 {
	return sorted[sort.SearchFloat64s(sorted, math.SmallestNonzeroFloat64):]
}

// median sorts vs in place and returns its middle value (mean of the two
// middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// quietRate is the throughput estimate every workload reports: the upper
// quartile of the rates of a run's measured pieces (time slices of one
// simulation, or repeats of identical work). Neighbours on a shared box only
// ever slow a piece down, so the faster pieces are the ones that measured
// the program; the quartile, not the maximum, keeps one lucky piece from
// setting the number. It sorts rates in place.
func quietRate(rates []float64) float64 {
	sort.Float64s(rates)
	return quantile(rates, 0.75)
}

// ratio is a/b with 0 for an empty base: a layer that did no work reports
// 0, not NaN, so every metric stays a finite JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsPerOp times batches of n calls to fn until budget is spent (at least
// five batches) and returns the median batch's cost per call in
// nanoseconds. Batches amortise the clock; the median drops the batches a
// preemption landed in. prep, when set, runs untimed before each batch.
func nsPerOp(budget time.Duration, n int, prep, fn func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < budget {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// liveHeapMiB forces a collection and returns the heap still reachable.
// Callers keep the structure they are sizing alive across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMeter measures bytes and objects allocated between start and stop.
type allocMeter struct{ bytes, objects uint64 }

func startAllocMeter() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc, ms.Mallocs}
}

func (a allocMeter) stop() (bytes, objects float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - a.bytes), float64(ms.Mallocs - a.objects)
}

// newLayerMap returns the per-layer metric set with every metric at 0: a
// layer the workload does not exercise did no work and spent no time.
func newLayerMap() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	return m
}
