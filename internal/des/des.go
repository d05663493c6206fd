// Package des implements a deterministic discrete-event simulation
// engine: a simulator clock, an event queue of sorted delay runs whose
// heads sit in a binary heap of keyed entries, stable FIFO ordering
// for simultaneous events, and helpers for periodic and conditional
// scheduling.
//
// Time is modelled as float64 seconds from the start of the run.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes runs bit-for-bit reproducible for a fixed
// seed and workload.
//
// # Memory model
//
// Event records live in a slab ([]eventRec) owned by the Simulator and
// are recycled through a free list, so steady-state scheduling and
// firing allocate nothing. Events handed back to callers are small
// generation-stamped handles (Event values, not pointers): a handle
// whose slot has since been freed or reused no longer matches the
// slot's generation stamp, so Cancel/Pending on a stale handle are
// safe no-ops. The hot path of the network simulator additionally uses
// typed events (ScheduleTyped) that carry their arguments in the
// record itself instead of in a captured closure, keeping the
// per-packet path allocation-free.
//
// # Event queue
//
// Most events are scheduled at an offset from now that a still-pending
// event also used: a link's propagation delay, a packet's serialization
// time, a source's gap. Events scheduled at one offset come due in the
// order they were scheduled, so they are already sorted. The queue
// keeps each such stream as a delay run: a list linked through the
// slab, whose head alone sits in a binary heap. A schedule whose
// offset matches a non-empty run, and whose key is above the run's
// tail, is linked behind the tail — no heap operation. Every other
// event (an offset collision in the small run table, a key not above
// the tail, a cross-shard delivery) goes on the heap as the head of a
// run of its own. Dispatch replaces the root with the next event of
// its run and sifts it down once.
//
// The heap holds small entries — the event's ordering key plus its
// slab index — so a sift compares keys without touching the slab. When
// the dispatched event's run is empty, the loop does not pop the root
// before calling the handler: it leaves the root vacant, and the
// handler's first heap-bound schedule writes its event there and sifts
// it down once (a heapreplace). Whatever else reads the queue first
// settles the vacant root (pops it for real).
//
// Cancel is lazy: a cancelled event drops its references and leaves
// Pending at once, but its slot stays queued until it reaches the root,
// where it is released without firing. Dispatch order is unaffected by
// any of this: (time, class, key) is a strict total order, every run
// is sorted by it, and so every pop returns the unique minimum.
//
// An event that may never be needed need not be queued at all: Reserve
// takes the key it would have had, Passed reports whether dispatch
// order has gone beyond that key, and ScheduleReserved places the
// event there after all, on the heap. The packet simulator reserves
// each transmission's end this way and schedules it only when a packet
// queues behind it, so an idle hop costs one event, the arrival.
package des

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Handler is the callback invoked when an event fires. It runs with
// the simulator clock set to the event's timestamp.
type Handler func()

// TypedFunc is the callback form of typed events: the simulator passes
// back the two operands and kind given to ScheduleTyped. Pass a
// package-level function (not a closure or method value) so scheduling
// a typed event performs no allocation; operands should be pointers,
// which box into `any` without allocating.
type TypedFunc func(a, b any, kind uint8)

// eventRec is one slab slot. Slots are addressed by index; gen is
// bumped every time the slot is released, invalidating handles and run
// tails from the occupancy that ended. k is the k half of the event's
// ordering key (see heapEntry), kept so a run's next event can take
// the heap position of the one before it; next is the slab index of
// that next event, -1 at the run's tail. A queued slot whose h and fn
// are both nil was cancelled.
type eventRec struct {
	time float64
	k    uint64
	gen  uint32
	next int32
	kind uint8
	h    Handler
	fn   TypedFunc
	a, b any
}

// key returns the record's heap entry.
func (r *eventRec) key(idx int32) heapEntry {
	return heapEntry{t: timeKey(r.time), k: r.k, idx: idx}
}

// live reports whether a queued record will fire: cancelling drops its
// handler.
func (r *eventRec) live() bool { return r.h != nil || r.fn != nil }

// drop clears the record's payload, so the slab retains no handler or
// packet past the event's life.
func (r *eventRec) drop() {
	r.h = nil
	r.fn = nil
	r.a = nil
	r.b = nil
}

// run is one slot of the delay-run table: the offset its events were
// scheduled at (float64 bits) and the run's tail as a handle (slab
// index + 1, 0 for none, and generation). The run is empty once the
// tail's slot is released, which bumps its generation.
type run struct {
	off  uint64
	tail int32
	gen  uint32
}

// runBits sizes the run table: 1<<runBits slots, indexed by a hash of
// the offset.
const runBits = 6

// runSlot hashes an offset's bits onto the run table (Fibonacci
// hashing: the multiply mixes every bit into the top ones).
func runSlot(off uint64) uint64 { return off * 0x9E3779B97F4A7C15 >> (64 - runBits) }

// heapEntry is one heap position: an event's ordering key, held
// inline so sifting never loads a slab record, and its slab index.
//
// t is the event time's IEEE-754 bit pattern. checkTime admits only
// times >= now >= 0, and for non-negative floats the bit patterns
// order like the values — except -0, whose sign bit would put it
// after every other time, so timeKey clears the sign.
//
// k is cls<<63 | seq. The class orders simultaneous events: 0 for
// locally scheduled events (FIFO by the simulator's seq counter), 1
// for cross-shard channel deliveries (ordered by the
// partition-independent channel key, id<<32 | channel seq — see
// Channel and channelID). Locals fire before deliveries at the same
// instant, a rule that is itself placement-independent because an
// event's class depends only on whether its edge is a cut edge.
type heapEntry struct {
	t, k uint64
	idx  int32
}

// clsDelivery is the class bit of a channel delivery's key.
const clsDelivery = 1 << 63

// timeKey is the t half of an event's heap key: see heapEntry.
func timeKey(t float64) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// below orders heap entries by (t, k), compared as one 128-bit number:
// it is 1 when a − b borrows, that is when a sorts first, else 0. The
// borrow chain has no branch, so siftDown picks the smaller child by
// adding the result to an index rather than by a mispredicted jump. No
// two live entries share a key, so the order is strict and total — the
// heart of the shards=1 ≡ shards=N guarantee, because the key never
// says which shard scheduled what.
func below(a, b heapEntry) uint64 {
	_, borrow := bits.Sub64(a.k, b.k, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return borrow
}

// Event is a generation-stamped handle to a scheduled callback. The
// zero Event is valid and inert: Pending reports false and Cancel is a
// no-op. Handles stay safe after the event fires or is cancelled — a
// cancelled record has dropped its handler, and a recycled slot's
// generation stamp no longer matches, so every operation degrades to a
// no-op instead of touching a recycled event.
type Event struct {
	s   *Simulator
	id  int32 // slab index + 1; 0 means "no event"
	gen uint32
}

// rec returns the live slab record for the handle, or nil if the event
// already fired, was cancelled, or the handle is zero.
func (e Event) rec() *eventRec {
	if e.s == nil || e.id == 0 {
		return nil
	}
	r := &e.s.recs[e.id-1]
	if r.gen != e.gen || !r.live() {
		return nil
	}
	return r
}

// Time returns the simulated time at which the event fires, or 0 if it
// is no longer pending.
func (e Event) Time() float64 {
	if r := e.rec(); r != nil {
		return r.time
	}
	return 0
}

// Pending reports whether the event is still queued and will fire.
func (e Event) Pending() bool { return e.rec() != nil }

// Cancel makes the event not fire. Cancelling an event that already
// fired, was already cancelled, or is the zero Event is a safe no-op.
// The event drops its handler and operands and leaves the simulator's
// Pending count at once; its slot stays queued, touching no heap entry,
// and is recycled when the event's time comes round to the root.
func (e Event) Cancel() {
	r := e.rec()
	if r == nil {
		return
	}
	r.drop()
	e.s.live--
}

// Simulator owns the virtual clock and the pending-event queue.
// It is not safe for concurrent use; a simulation run is a single
// logical thread of control, per the usual DES model.
type Simulator struct {
	now  float64
	recs []eventRec
	free []int32     // free slab slots (LIFO for cache locality)
	heap []heapEntry // binary min-heap of run heads, by below
	// vacant marks heap[0] as the event runWindow last took, whose run
	// had no next event: its slot is already released and its key is
	// stale. The handler's first heap-bound schedule overwrites it
	// (push); whatever reads the queue next settles it. It outlives
	// runWindow only when a handler panics.
	vacant bool
	// runs is the delay-run table (see "Event queue"): which run an
	// event at a given offset may join.
	runs [1 << runBits]run
	// live counts queued events that are neither cancelled nor being
	// dispatched: the Pending count.
	live int

	seq     uint64
	fired   uint64
	stopped bool
	// curK is the dispatch frontier at now: every local key below it at
	// time now has been dispatched, and none above (see Passed). For a
	// local event it is the dispatching event's key. A delivery sorts
	// after every local event at its time that exists when it is taken,
	// but a local event scheduled at now from its handler still fires
	// after it, so for a delivery it is seq at dispatch. A completed
	// RunUntil raises it to seq, since every event due by then has fired.
	curK uint64
	// EventLimit, when non-zero, aborts Run with ErrEventLimit after
	// that many events have fired. It guards against runaway
	// self-rescheduling loops.
	EventLimit uint64

	// interrupt, when non-nil, is polled whenever the fired counter
	// reaches nextPoll, a multiple of interruptEvery; a non-nil return
	// aborts RunUntil with that error. See SetInterrupt.
	interrupt func() error
	nextPoll  uint64

	// outbox heads the list of channels this shard has sent on since
	// the last barrier of a sharded run (see Channel.Send). Between
	// barriers only the shard's own events write it.
	outbox *Channel
}

// ErrEventLimit is returned by Run and RunUntil when Simulator.EventLimit
// is exceeded.
var ErrEventLimit = errors.New("des: event limit exceeded")

// New returns a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events that have been dispatched.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of live events still queued. A cancelled
// event stops counting when it is cancelled, though its slot is
// recycled only when its time comes; the event being dispatched is not
// counted either.
func (s *Simulator) Pending() int { return s.live }

// alloc takes a slot off the free list (or grows the slab).
func (s *Simulator) alloc() int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		//hbplint:ignore hotalloc amortized slab growth: once the slab covers peak concurrent events, every alloc is a free-list pop; AllocsPerRun pins the steady state at 0.
		s.recs = append(s.recs, eventRec{})
		idx = int32(len(s.recs) - 1)
	}
	return idx
}

// release returns a slot to the free list, dropping its payload and
// bumping its generation, which invalidates its handles and ends a
// run whose tail it was.
func (s *Simulator) release(idx int32) {
	r := &s.recs[idx]
	r.drop()
	r.gen++
	//hbplint:ignore hotalloc free-list append into capacity released by alloc's pops; it can only grow to the slab's own length.
	s.free = append(s.free, idx)
}

func (s *Simulator) checkTime(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling an event at %.9f before now %.9f", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling an event at non-finite time %v", t))
	}
}

// record takes a slot and fills it as a live event keyed (t, k) with
// the given payload (h for a closure event, else fn(a, b, kind)) and no
// run successor yet. Every way of queueing an event writes its record
// here.
func (s *Simulator) record(t float64, k uint64, h Handler, fn TypedFunc, a, b any, kind uint8) (int32, *eventRec) {
	idx := s.alloc()
	r := &s.recs[idx]
	r.time, r.k, r.next = t, k, -1
	r.h, r.fn, r.a, r.b, r.kind = h, fn, a, b, kind
	s.live++
	return idx, r
}

func (s *Simulator) schedule(t float64, h Handler, fn TypedFunc, a, b any, kind uint8) Event {
	s.checkTime(t)
	idx, r := s.record(t, s.seq, h, fn, a, b, kind)
	s.seq++
	e := Event{s: s, id: idx + 1, gen: r.gen}
	key := r.key(idx)
	off := math.Float64bits(t - s.now)
	rn := &s.runs[runSlot(off)]
	if rn.tail != 0 && s.recs[rn.tail-1].gen == rn.gen {
		// The slot's run is non-empty. The event joins it if it has the
		// run's offset and sorts after its tail; otherwise it goes on
		// the heap and the run keeps the slot.
		if tail := &s.recs[rn.tail-1]; rn.off == off && below(tail.key(rn.tail-1), key) != 0 {
			tail.next = idx
			rn.tail, rn.gen = e.id, e.gen
			return e
		}
	} else {
		// The event starts the slot's run from the heap.
		*rn = run{off: off, tail: e.id, gen: e.gen}
	}
	s.push(key)
	return e
}

// At schedules h to run at absolute time t. Scheduling in the past
// (t < Now) panics: it would corrupt causality.
func (s *Simulator) At(t float64, h Handler) Event {
	if h == nil {
		panic("des: nil handler")
	}
	return s.schedule(t, h, nil, nil, nil, 0)
}

// After schedules h to run d seconds from now. Negative d panics.
func (s *Simulator) After(d float64, h Handler) Event {
	return s.At(s.now+d, h)
}

// ScheduleTyped schedules the typed event fn(a, b, kind) at absolute
// time t. Unlike At, the operands ride in the event record itself, so
// no closure needs to be allocated per event — this is the
// steady-state scheduling path of the packet simulator (one event per
// hop through an idle port, an arrival; a second, at a reserved key,
// only when a packet waits behind the transmission). fn must be
// non-nil; pass a package-level function to keep the call
// allocation-free.
func (s *Simulator) ScheduleTyped(t float64, fn TypedFunc, a, b any, kind uint8) Event {
	if fn == nil {
		panic("des: nil typed handler")
	}
	return s.schedule(t, nil, fn, a, b, kind)
}

// Reservation is an event key held in reserve: the (time, seq) slot
// an event scheduled at Reserve's call would have taken, kept without
// an event behind it. The zero Reservation holds no key and reads as
// passed.
type Reservation struct {
	t float64
	n uint64 // the reserved seq + 1
}

// Reserve consumes one seq exactly as scheduling an event at time t
// would, and returns that key without queueing anything. Passed tells
// whether dispatch order has gone beyond it; ScheduleReserved places
// an event there after all. t follows At's rules.
func (s *Simulator) Reserve(t float64) Reservation {
	s.checkTime(t)
	s.seq++
	return Reservation{t: t, n: s.seq}
}

// Passed reports whether dispatch order has gone beyond r: the clock
// is past r's time, or at it with an event of a higher key dispatching
// or dispatched (or after a RunUntil that ended there, having fired
// every event due). An event scheduled at r would have fired by then.
// DrainPending fires nothing and leaves reservations as they were.
func (s *Simulator) Passed(r Reservation) bool {
	return s.now > r.t || (s.now == r.t && s.curK >= r.n)
}

// ScheduleReserved schedules the typed event fn(a, b, kind) at r's
// key, so it fires exactly where an event scheduled at the Reserve
// call would have. It goes on the heap, in no delay run. Schedule at a
// reservation at most once, and only while Passed reports false.
func (s *Simulator) ScheduleReserved(r Reservation, fn TypedFunc, a, b any, kind uint8) Event {
	if fn == nil {
		panic("des: nil typed handler")
	}
	if s.Passed(r) {
		panic(fmt.Sprintf("des: scheduling at a reservation (%.9f) dispatch has passed", r.t))
	}
	idx, rec := s.record(r.t, r.n-1, nil, fn, a, b, kind)
	s.push(rec.key(idx))
	return Event{s: s, id: idx + 1, gen: rec.gen}
}

// Every schedules h to run every period seconds, starting at time
// start. It returns a stop function; calling it prevents all future
// firings. period must be positive.
func (s *Simulator) Every(start, period float64, h Handler) (stop func()) {
	if period <= 0 {
		panic("des: non-positive period")
	}
	stopped := false
	var tick func()
	var pending Event
	tick = func() {
		if stopped {
			return
		}
		h()
		if !stopped {
			pending = s.After(period, tick)
		}
	}
	pending = s.At(start, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}

// Stop makes Run return after the currently dispatching event (if any)
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// interruptEvery is the event-batch size between interrupt polls.
// Checking roughly once per thousand events keeps the poll invisible
// next to dispatch work while bounding cancellation latency to well
// under a millisecond of wall time.
const interruptEvery = 1024

// SetInterrupt installs a cooperative cancellation checkpoint: check
// is polled once per 1024 fired events (interruptEvery), and a non-nil
// return makes RunUntil stop — after the currently dispatching event,
// never mid-handler — and return that error. Pending events stay
// queued, so the owner can drain or resume.
//
// The checkpoint never perturbs event order or the simulated clock; a
// run that is not interrupted is bit-identical with or without an
// interrupt installed. Pass nil to remove the checkpoint. The intended
// check is a closure over a context.Context's Err method, giving the
// run-to-completion loops of the experiment runners a supervised,
// cancellable lifecycle.
func (s *Simulator) SetInterrupt(check func() error) {
	s.interrupt = check
	// The first multiple of interruptEvery not below fired; runWindow
	// then steps by interruptEvery with a compare instead of dividing on
	// each event.
	s.nextPoll = (s.fired + interruptEvery - 1) / interruptEvery * interruptEvery
}

// Run dispatches events until the queue is empty, Stop is called, or
// the event limit is hit.
//
//hbplint:hotpath event-dispatch core; hbpbench tree-defense and des.closure_event_ns/typed_event_ns measure this loop
func (s *Simulator) Run() error {
	return s.RunUntil(math.Inf(1))
}

// RunUntil dispatches events with time <= end, then advances the clock
// to end (if any event was pending beyond it, the clock still becomes
// end, never more). A run that Stop ended keeps the clock at the last
// dispatched event's time, so a resumed run fires what is still
// pending without the clock going backwards. It returns ErrEventLimit
// if the event budget is exhausted.
func (s *Simulator) RunUntil(end float64) error {
	s.stopped = false
	if err := s.runWindow(end, true); err != nil {
		return err
	}
	if !s.stopped {
		s.ranTo(end)
	}
	return nil
}

// ranTo records a run that fired every event due by end: the clock
// moves up to end (never back, and not to +Inf), and every key
// reserved so far at the clock's time counts as passed.
func (s *Simulator) ranTo(end float64) {
	if !math.IsInf(end, 1) && end > s.now {
		s.now = end
	}
	s.curK = s.seq
}

// runWindow dispatches events with time < bound (time <= bound when
// inclusive), honoring Stop, the event limit and the interrupt hook.
// Unlike RunUntil it neither clears a Stop left by an earlier window
// nor advances the clock to the bound: the sharded coordinator calls
// it once per conservative window and performs both at run boundaries.
func (s *Simulator) runWindow(bound float64, inclusive bool) error {
	for {
		// The previous handler scheduled nothing on the heap: pop its
		// root now.
		s.settle()
		if len(s.heap) == 0 || s.stopped {
			return nil
		}
		idx := s.heap[0].idx
		r := &s.recs[idx]
		if !r.live() {
			// Cancelled: recycle the slot and fire nothing, as head
			// does for the queue's other readers.
			s.pop()
			s.release(idx)
			continue
		}
		// Cooperative checkpoint: polled between events (never
		// mid-handler, never after the head event is taken) so an
		// interrupted run keeps its whole pending queue.
		if s.interrupt != nil && s.fired == s.nextPoll {
			// A failed poll is not used up: a resumed run polls again
			// before its first event.
			if err := s.interrupt(); err != nil {
				return err
			}
			s.nextPoll += interruptEvery
		}
		if r.time > bound || (!inclusive && r.time == bound) {
			return nil
		}
		// Copy the dispatch fields out and recycle the slot before the
		// callback runs: the callback may schedule (growing the slab) or
		// hold a stale handle to this very slot, both of which the
		// generation stamp already guards. The run's next event takes
		// the root; at the end of the run the root stays in the heap,
		// vacant, for the callback's first schedule to take over.
		t, k, h, fn, a, b, kind := r.time, r.k, r.h, r.fn, r.a, r.b, r.kind
		if r.next >= 0 {
			s.replaceRoot(r.next)
		} else {
			s.vacant = true
		}
		s.release(idx)
		s.live--
		s.now, s.curK = t, min(k, s.seq)
		s.fired++
		if s.EventLimit > 0 && s.fired > s.EventLimit {
			// The over-budget event is dropped.
			s.settle()
			return ErrEventLimit
		}
		if h != nil {
			h()
		} else {
			fn(a, b, kind)
		}
	}
}

// head settles a vacant root and releases the cancelled events that
// have reached the root, and reports whether a live event is next.
func (s *Simulator) head() bool {
	s.settle()
	for len(s.heap) > 0 {
		idx := s.heap[0].idx
		if s.recs[idx].live() {
			return true
		}
		s.pop()
		s.release(idx)
	}
	return false
}

// nextEventTime returns the timestamp of the earliest pending event.
// The coordinator uses it to size the next conservative window.
func (s *Simulator) nextEventTime() (float64, bool) {
	if !s.head() {
		return 0, false
	}
	return s.recs[s.heap[0].idx].time, true
}

// scheduleMsg injects a cross-shard channel delivery: a typed event in
// ordering class 1 whose seq is the partition-independent channel key
// (channel id, per-channel sequence) rather than a draw from the local
// seq counter. It goes on the heap, in no delay run. The coordinator
// calls it at window barriers only.
func (s *Simulator) scheduleMsg(t float64, fn TypedFunc, a, b any, kind uint8, key uint64) {
	s.checkTime(t)
	idx, r := s.record(t, clsDelivery|key, nil, fn, a, b, kind)
	s.push(r.key(idx))
}

// DrainedEvent is one pending event handed back by DrainPending. For
// typed events (ScheduleTyped) the operands and kind are populated and
// Handler is nil; for closure events only Handler is set. Neither is
// invoked — the drain exists so the owner can reclaim resources the
// event record was keeping alive (pooled packets riding typed link
// events, above all) instead of leaking them when a run is torn down.
type DrainedEvent struct {
	Time    float64
	Handler Handler
	Fn      TypedFunc
	A, B    any
	Kind    uint8
}

// DrainPending removes every pending event without firing it, passing
// each to visit (which may be nil) in dispatch order.
// The clock, fired counter and event limit are untouched, so a drain
// composes with result collection after RunUntil. This is the
// teardown path a completed run must take before leak-checking pooled
// resources: a pooled packet still riding an in-flight event comes back
// only through its visit.
func (s *Simulator) DrainPending(visit func(DrainedEvent)) {
	for s.head() {
		idx := s.heap[0].idx
		r := &s.recs[idx]
		ev := DrainedEvent{Time: r.time, Handler: r.h, Fn: r.fn, A: r.a, B: r.b, Kind: r.kind}
		s.pop()
		s.release(idx)
		s.live--
		if visit != nil {
			visit(ev)
		}
	}
}

// --- binary heap of run heads ----------------------------------------

// push inserts e: into the vacant root when there is one — one sift
// down instead of the pop and push it replaces — else at the tail.
func (s *Simulator) push(e heapEntry) {
	if s.vacant {
		s.vacant = false
		s.heap[0] = e
		s.siftDown()
		return
	}
	//hbplint:ignore hotalloc amortized heap growth: the heap's capacity tracks peak concurrent runs, mirroring the slab; steady state is append-into-capacity.
	s.heap = append(s.heap, e)
	s.siftUp()
}

// replaceRoot puts the run successor next in the root's place.
func (s *Simulator) replaceRoot(next int32) {
	s.heap[0] = s.recs[next].key(next)
	s.siftDown()
}

// pop removes the root, whose slot the caller releases: the next event
// of its run takes its place, or at the end of the run the heap
// shrinks.
func (s *Simulator) pop() {
	if next := s.recs[s.heap[0].idx].next; next >= 0 {
		s.replaceRoot(next)
		return
	}
	s.removeRoot()
}

// settle pops a vacant root: the dispatched event's handler scheduled
// nothing on the heap (or has not returned, having panicked), so
// nothing took its place.
func (s *Simulator) settle() {
	if s.vacant {
		s.vacant = false
		s.removeRoot()
	}
}

// removeRoot deletes the heap's root, restoring heap order.
func (s *Simulator) removeRoot() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown()
	}
}

// siftUp moves the heap's last entry up to its place.
func (s *Simulator) siftUp() {
	h := s.heap
	i := len(h) - 1
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if below(e, h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown moves the root down to its place.
func (s *Simulator) siftDown() {
	h := s.heap
	i := 0
	e := h[i]
	for {
		c := 2*i + 1
		if c+1 >= len(h) {
			// At most one child: the bottom of the heap.
			if c < len(h) && below(h[c], e) != 0 {
				h[i] = h[c]
				i = c
			}
			break
		}
		c += int(below(h[c+1], h[c]))
		if below(h[c], e) == 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
