package netsim

// pktRing is a growable circular FIFO of packets. Unlike the previous
// slice-shift implementation, popping never reallocates and the
// backing array stops growing once it reaches the lane's working set,
// so sustained load runs allocation-free.
type pktRing struct {
	buf  []*Packet // len(buf) is always a power of two (or zero)
	head int
	n    int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) grow() {
	newCap := 16
	if len(r.buf) > 0 {
		newCap = len(r.buf) * 2
	}
	//hbplint:ignore hotalloc amortized ring doubling: capacity is bounded by the port's queue cap, after which push/pop never allocates.
	buf := make([]*Packet, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// outQueue is the output buffering of one port: a drop-tail FIFO for
// data-plane packets plus a strict-priority lane for control-plane
// packets. The priority lane models the common practice of protecting
// routing/defense control traffic from data-plane congestion, so
// defense messages are not starved by the very flood they are
// fighting; the paper's honeypot request/cancel messages ride it.
type outQueue struct {
	data pktRing
	ctrl pktRing
	// dataLimit and ctrlLimit are packet-count capacities. A packet
	// arriving at a full lane is dropped (drop-tail).
	dataLimit int
	ctrlLimit int

	// Drops counts packets lost to queue overflow, by lane.
	DataDrops int64
	CtrlDrops int64
	// REDDrops counts RED early drops (also included in DataDrops).
	REDDrops int64
	// Enqueued counts accepted packets, by lane.
	DataEnqueued int64
	CtrlEnqueued int64

	// red, when non-nil, applies Random Early Detection to the data
	// lane before the hard drop-tail limit.
	red *redState
}

// DefaultDataQueueLimit mirrors ns-2's default drop-tail queue of 50
// packets, which the paper's Pushback module inherits.
const DefaultDataQueueLimit = 50

// DefaultCtrlQueueLimit is generous: control traffic is sparse and
// must not be lost to its own lane under normal operation.
const DefaultCtrlQueueLimit = 1000

// newOutQueue returns an empty queue with the default lane limits. A
// Port embeds the value, so a link's queues cost no allocation of their
// own and enqueue reaches them without a pointer chase.
func newOutQueue() outQueue {
	return outQueue{dataLimit: DefaultDataQueueLimit, ctrlLimit: DefaultCtrlQueueLimit}
}

// push enqueues p, honouring lane limits. It reports whether the
// packet was accepted (the caller owns — and must free — a rejected
// packet). Control packets take the control lane.
func (q *outQueue) push(p *Packet) bool {
	if p.Type == Control {
		if q.ctrl.n >= q.ctrlLimit {
			q.CtrlDrops++
			return false
		}
		q.ctrl.push(p)
		q.CtrlEnqueued++
		return true
	}
	if q.red != nil && q.red.shouldDrop(q.data.n) {
		q.REDDrops++
		q.DataDrops++
		return false
	}
	if q.data.n >= q.dataLimit {
		q.DataDrops++
		return false
	}
	q.data.push(p)
	q.DataEnqueued++
	return true
}

// pop dequeues the next packet to transmit: control lane first.
func (q *outQueue) pop() *Packet {
	if p := q.ctrl.pop(); p != nil {
		return p
	}
	return q.data.pop()
}

// len returns the number of queued packets across both lanes.
func (q *outQueue) len() int { return q.data.n + q.ctrl.n }

// flush discards every queued packet (a node crash), recycling them
// into the network's pool, and returns how many were lost. Drop
// counters are the caller's responsibility.
func (q *outQueue) flush(nw *Network) int {
	n := q.len()
	for p := q.ctrl.pop(); p != nil; p = q.ctrl.pop() {
		nw.freePacket(p)
	}
	for p := q.data.pop(); p != nil; p = q.data.pop() {
		nw.freePacket(p)
	}
	return n
}
