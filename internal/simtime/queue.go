package simtime

// Item is one queued value with its ordering key: the instant as UnixNano
// and the order it was pushed in.
type Item[E any] struct {
	AtNs int64
	Seq  uint64
	Val  E
}

func (a *Item[E]) before(b *Item[E]) bool {
	return a.AtNs < b.AtNs || (a.AtNs == b.AtNs && a.Seq < b.Seq)
}

// Queue is a binary min-heap of values ordered by (AtNs, Seq): by instant,
// and values pushed for one instant in the order they were pushed. Seq
// numbers never repeat, so the order is total. The Scheduler and citysim's
// shard wheels both run on it. The zero Queue is empty and ready.
type Queue[E any] struct {
	items []Item[E]
	seq   uint64
}

// Len returns the number of queued values.
func (q *Queue[E]) Len() int { return len(q.items) }

// Push queues v at atNs and returns its sequence number, never 0.
func (q *Queue[E]) Push(atNs int64, v E) uint64 {
	q.seq++
	e := Item[E]{AtNs: atNs, Seq: q.seq, Val: v}
	q.items = append(q.items, e)
	h := q.items
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return e.Seq
}

// Min returns the earliest item without removing it. The queue must not be
// empty.
func (q *Queue[E]) Min() Item[E] { return q.items[0] }

// Pop removes and returns the earliest item, sifting the last one down
// from the root. The queue must not be empty.
func (q *Queue[E]) Pop() Item[E] {
	h := q.items
	top := h[0]
	n := len(h) - 1
	last := h[n]
	q.items = h[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// PopBefore removes and returns the earliest item if it lies before endNs,
// moving *nowNs to its instant. Otherwise it reports false and moves *nowNs
// to endNs, never back. This is one step of a run in windows [start, end):
// an item at exactly endNs belongs to the next window, and code between
// windows may push at endNs without pushing into the past.
func (q *Queue[E]) PopBefore(endNs int64, nowNs *int64) (Item[E], bool) {
	if len(q.items) == 0 || q.items[0].AtNs >= endNs {
		*nowNs = max(*nowNs, endNs)
		return Item[E]{}, false
	}
	e := q.Pop()
	*nowNs = e.AtNs
	return e, true
}
