package bounded

// Queue is a fixed-capacity FIFO with explicit admission control: a
// push against a full queue is rejected (and counted) instead of
// growing the backing store. It is the backpressure primitive of the
// scenario service's submission queue — a client flooding the API
// pushes the daemon into reject-with-Retry-After, never into unbounded
// memory growth, the same contract Dedup and ReplayWindow give the
// defense planes.
type Queue[T any] struct {
	cap  int
	buf  []T
	head int
	n    int

	// Rejected counts pushes refused because the queue was full.
	Rejected int64
}

// NewQueue returns a queue admitting at most capacity elements.
// capacity <= 0 panics: a cap-less queue is exactly the unbounded
// growth this package exists to prevent.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("bounded: non-positive queue capacity")
	}
	return &Queue[T]{cap: capacity}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the configured capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether the next Push would be rejected.
func (q *Queue[T]) Full() bool { return q.n == q.cap }

// Push appends v and reports whether it was admitted; a push against a
// full queue is counted in Rejected and returns false.
func (q *Queue[T]) Push(v T) bool {
	if q.n == q.cap {
		q.Rejected++
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	return true
}

// Pop removes and returns the oldest element; ok is false on an empty
// queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v = q.buf[q.head]
	q.buf[q.head] = zero // drop the reference so the slot does not pin it
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Peek returns the oldest element without removing it; ok is false on
// an empty queue.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Remove deletes the oldest element match accepts, keeping the others
// in order, and reports whether there was one. The freed slot admits
// the next Push.
func (q *Queue[T]) Remove(match func(T) bool) bool {
	for i := 0; i < q.n; i++ {
		if !match(q.buf[(q.head+i)%len(q.buf)]) {
			continue
		}
		for ; i > 0; i-- { // shift the older elements up over it
			q.buf[(q.head+i)%len(q.buf)] = q.buf[(q.head+i-1)%len(q.buf)]
		}
		q.Pop()
		return true
	}
	return false
}

// grow doubles the backing store up to the capacity, starting small so
// a mostly-idle queue does not pay for its worst case.
func (q *Queue[T]) grow() {
	newCap := 8
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	if newCap > q.cap {
		newCap = q.cap
	}
	buf := make([]T, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}
