package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachPoint evaluates fn(i) for every i in [0, n) and returns the
// results indexed by i. Points run concurrently on a pool GOMAXPROCS
// wide; each point must therefore be self-contained (build its own
// simulation, touch no shared mutable state). Results land in input
// order regardless of completion order, and callers render rows from the
// returned slice, so a table is byte-identical at any pool width. On
// failure the lowest-index error is returned — also order-independent —
// after every point has run.
func forEachPoint[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
