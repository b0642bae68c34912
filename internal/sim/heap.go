package sim

// eventHeap is a typed min-heap ordered by (at, seq). It hand-rolls sift-up
// and sift-down instead of using container/heap: the interface{}-based API
// boxes every event on push (one heap allocation per scheduled event) and
// pays dynamic dispatch per comparison. It is the timing wheel's overflow
// store for events beyond the wheel horizon, and the reference queue the
// tests drive op for op beside the wheel (TestQueueDifferential).
type eventHeap []event

// less orders events by time, then by scheduling order (FIFO tie-break).
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push inserts ev, restoring the heap invariant by sifting it up.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes and returns the minimum event. The vacated tail slot is
// cleared so the heap does not pin the popped callback's closure.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	*h = q
	// Sift the relocated tail element down to its place.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return ev
}
