package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// setProcs makes the sweep pool n wide until the test ends. Tests that
// call it must not run in parallel: GOMAXPROCS is process-wide.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForEachPointPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		setProcs(t, workers)
		out, err := forEachPoint(20, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachPointZeroPoints(t *testing.T) {
	out, err := forEachPoint(0, func(int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestForEachPointLowestIndexErrorWins(t *testing.T) {
	setProcs(t, 4)
	wantErr := errors.New("point 3")
	_, err := forEachPoint(10, func(i int) (string, error) {
		if i == 7 {
			return "", errors.New("point 7")
		}
		if i == 3 {
			return "", wantErr
		}
		return fmt.Sprintf("ok-%d", i), nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the lowest-index error %v", err, wantErr)
	}
}

func TestForEachPointRunsEveryPointDespiteError(t *testing.T) {
	// An early failure must not strand later points half-evaluated: all
	// points run to completion before the error is surfaced, so partial
	// side effects are at least deterministic — at any pool width, one
	// included.
	for _, workers := range []int{1, 3} {
		setProcs(t, workers)
		var ran atomic.Int64
		_, err := forEachPoint(12, func(i int) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		if got := ran.Load(); got != 12 {
			t.Fatalf("workers=%d: %d points ran, want 12", workers, got)
		}
	}
}

// renderTable runs one experiment and returns its fully rendered table; any
// scheduling-dependent divergence in cell values shows up as a byte diff.
func renderTable(t *testing.T, id string, opt Options) string {
	t.Helper()
	spec, ok := Find(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	res, err := spec.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParallelTablesByteIdentical is the determinism contract for the
// parallel sweep runner: at the same seed, a table computed on a pool 4
// wide must be byte-for-byte identical to one computed at GOMAXPROCS=1. E3
// (per-size sims), E5 (hops×loss grid), and E12 (chaos scenarios with fault
// injection) cover the three heaviest sweep shapes.
func TestParallelTablesByteIdentical(t *testing.T) {
	for _, id := range []string{"E3", "E5", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			setProcs(t, 1)
			serial := renderTable(t, id, Options{Seed: 1})
			setProcs(t, 4)
			parallel := renderTable(t, id, Options{Seed: 1})
			if serial != parallel {
				t.Errorf("%s: serial and parallel tables differ\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial, parallel)
			}
		})
	}
}
