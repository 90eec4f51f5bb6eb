package sim

// heapArity is the fan-out of the overflow queue's d-ary heap. Four keeps
// the tree half as deep as a binary heap for the same size, so the
// pop-side sift-down — where every level is a round of dependent loads —
// touches fewer cache lines, while the push-side sift-up still compares
// against a single parent per level.
const heapArity = 4

// heapQ is a monomorphic heapArity-ary min-heap over events ordered by
// (at, seq). It was the kernel's whole event queue before the timing
// wheel; it remains as the wheel's spill-over for events beyond the
// horizon and events whose slot is full, as the oracle the wheel's ordering property tests compare
// against, and as the baseline for the heap-vs-wheel microbenchmarks.
type heapQ []event

// push appends e and restores the heap by sifting it up.
func (h *heapQ) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum event. The vacated slot at the old
// tail is zeroed so the retired action — and everything it captures — is
// collectable immediately instead of being pinned by the backing array
// for the rest of the run (the container/heap-era implementation leaked
// every popped fn this way).
func (h *heapQ) pop() event {
	q := *h
	e := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		c := i*heapArity + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[min]) {
				min = j
			}
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return e
}
