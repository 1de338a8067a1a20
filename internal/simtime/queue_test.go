package simtime

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestQueueMatchesPushOrderModel interleaves random pushes and pops, with
// instants drawn from a few values so ties are common and the extremes of
// int64 among them, against a model that keeps every pushed value in a
// slice and pops the first one at the smallest instant: the queue must pop
// the same values in the same order, numbering pushes 1, 2, 3, ...
func TestQueueMatchesPushOrderModel(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	instants := []int64{math.MinInt64, -1, 0, 1, 2, 3, math.MaxInt64}
	for round := 0; round < 200; round++ {
		var q Queue[int32]
		var model []Item[int32]
		pushed := uint64(0)
		for op := 0; op < 300; op++ {
			if rng.Intn(3) != 0 || len(model) == 0 {
				at := instants[rng.Intn(len(instants))]
				pushed++
				if seq := q.Push(at, int32(op)); seq != pushed {
					t.Fatalf("round %d: push %d numbered %d", round, pushed, seq)
				}
				model = append(model, Item[int32]{AtNs: at, Seq: pushed, Val: int32(op)})
				continue
			}
			k := 0
			for i := range model {
				if model[i].AtNs < model[k].AtNs {
					k = i
				}
			}
			want := model[k]
			model = slices.Delete(model, k, k+1)
			if min, got := q.Min(), q.Pop(); got != want || min != want {
				t.Fatalf("round %d: Min %+v, Pop %+v, model %+v", round, min, got, want)
			}
			if q.Len() != len(model) {
				t.Fatalf("round %d: %d queued, model %d", round, q.Len(), len(model))
			}
		}
	}
}

// TestItemIs24Bytes pins the Scheduler's queue item: the instant, the
// sequence number and an int32 slot.
func TestItemIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Item[int32]{}); size != 24 {
		t.Fatalf("Item[int32] is %d bytes, want 24", size)
	}
}
