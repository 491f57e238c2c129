// The pending-event store behind Engine: a hand-rolled binary min-heap over
// exact (time, sequence), with no interface boxing and each node tracking
// its own heap index so Cancel removes it in O(log n). Nodes are pooled on
// the engine's freelist; heap_test.go holds the heap against a
// container/heap reference under randomized and fuzzed schedules.
package sim

// node is a pooled scheduled event. A node is either queued (idx is its
// heap position) or on the freelist; the generation counter invalidates
// stale Event handles when the node is recycled.
type node struct {
	at    Time
	seq   uint64
	fn    func()
	fnA   func(any)
	arg   any
	label string

	gen  uint32
	idx  int32
	next *node // freelist link
}

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(n *node) {
	n.idx = int32(len(e.queue))
	e.queue = append(e.queue, n)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) pop() *node {
	h := e.queue
	n := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[0].idx = 0
	h[last] = nil
	e.queue = h[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return n
}

func (e *Engine) remove(i int) {
	h := e.queue
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].idx = int32(i)
	}
	h[last] = nil
	e.queue = h[:last]
	if i != last {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
}

func (e *Engine) siftUp(i int) {
	h := e.queue
	n := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = int32(i)
		i = parent
	}
	h[i] = n
	n.idx = int32(i)
}

// siftDown reports whether the node moved.
func (e *Engine) siftDown(i int) bool {
	h := e.queue
	n := h[i]
	start := i
	size := len(h)
	for {
		child := 2*i + 1
		if child >= size {
			break
		}
		if r := child + 1; r < size && nodeLess(h[r], h[child]) {
			child = r
		}
		if !nodeLess(h[child], n) {
			break
		}
		h[i] = h[child]
		h[i].idx = int32(i)
		i = child
	}
	h[i] = n
	n.idx = int32(i)
	return i > start
}
