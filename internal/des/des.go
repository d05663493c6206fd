// Package des implements a deterministic discrete-event simulation
// engine: a simulator clock, a binary-heap event queue whose entries
// carry their own ordering keys, stable FIFO ordering for simultaneous
// events, and helpers for periodic and conditional scheduling.
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
// The heap holds small entries — the event's ordering key plus its
// slab index — so a sift compares keys without touching the slab. The
// dispatch loop does not pop the root before calling the handler: it
// leaves the root vacant, and the handler's first schedule writes its
// event there and sifts it down once (a heapreplace). Most handlers
// schedule their successor, so most dispatches cost one sift instead
// of a pop and a push. Whatever else reads the queue first settles the
// vacant root (pops it for real) or accounts for it. Dispatch order is
// unaffected: (time, class, key) is a strict total order, so every
// correct priority queue pops the same sequence.
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

// eventRec is one slab slot. Slots are addressed by index; heapIdx is
// the slot's position in the heap (-1 when the slot is free) and gen
// is bumped every time the slot is handed out, invalidating handles
// from earlier occupancies. The ordering key lives in the slot's heap
// entry, not here.
type eventRec struct {
	time    float64
	gen     uint32
	heapIdx int32
	kind    uint8
	h       Handler
	fn      TypedFunc
	a, b    any
	name    string
}

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
// no-op. Handles stay safe after the event fires or is cancelled —
// the underlying slot's generation stamp no longer matches, so every
// operation degrades to a no-op instead of touching a recycled event.
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
	if r.gen != e.gen || r.heapIdx < 0 {
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

// Name returns the optional debug label given at scheduling time (""
// once the event is no longer pending).
func (e Event) Name() string {
	if r := e.rec(); r != nil {
		return r.name
	}
	return ""
}

// Pending reports whether the event is still queued and will fire.
func (e Event) Pending() bool { return e.rec() != nil }

// Cancel removes the event from the queue so it will not fire.
// Cancelling an event that already fired, was already cancelled, or is
// the zero Event is a safe no-op. The slot is recycled immediately, so
// Pending() of the simulator drops by one.
func (e Event) Cancel() {
	r := e.rec()
	if r == nil {
		return
	}
	// A vacant root needs no settling first: it holds the key of the
	// event being dispatched, which is below every pending key, so no
	// sift of the removal crosses it.
	s := e.s
	s.heapRemove(r.heapIdx)
	s.release(e.id - 1)
}

// Simulator owns the virtual clock and the pending-event queue.
// It is not safe for concurrent use; a simulation run is a single
// logical thread of control, per the usual DES model.
type Simulator struct {
	now  float64
	recs []eventRec
	free []int32     // free slab slots (LIFO for cache locality)
	heap []heapEntry // binary min-heap of keyed slab indices, by below
	// vacant marks heap[0] as the event runWindow last took: its slot
	// is already released and its key is stale. The handler's first
	// schedule overwrites it (push); whatever reads the queue next
	// settles it or, like Pending and Cancel, works around it. It
	// outlives runWindow only when a handler panics.
	vacant bool

	seq     uint64
	fired   uint64
	stopped bool
	// EventLimit, when non-zero, aborts Run with ErrEventLimit after
	// that many events have fired. It guards against runaway
	// self-rescheduling loops in tests. It is configuration, not run
	// state: Reset preserves it (but zeroes the fired counter, so the
	// budget restarts with the new run).
	EventLimit uint64

	// interrupt, when non-nil, is polled whenever the fired counter
	// reaches nextPoll, a multiple of interruptEvery; a non-nil return
	// aborts RunUntil with that error. See SetInterrupt.
	interrupt      func() error
	interruptEvery uint64
	nextPoll       uint64
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

// Pending returns the number of live events still queued. Cancelled
// events are removed from the queue immediately and never counted, and
// neither is the event being dispatched.
func (s *Simulator) Pending() int {
	if s.vacant {
		return len(s.heap) - 1
	}
	return len(s.heap)
}

// alloc takes a slot off the free list (or grows the slab) and bumps
// its generation.
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
	s.recs[idx].gen++
	return idx
}

// release returns a slot to the free list, dropping references so the
// slab does not retain handlers or packets past the event's life.
func (s *Simulator) release(idx int32) {
	r := &s.recs[idx]
	r.h = nil
	r.fn = nil
	r.a = nil
	r.b = nil
	r.name = ""
	r.heapIdx = -1
	//hbplint:ignore hotalloc free-list append into capacity released by alloc's pops; it can only grow to the slab's own length.
	s.free = append(s.free, idx)
}

func (s *Simulator) checkTime(t float64, name string) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event %q at %.9f before now %.9f", name, t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling event %q at non-finite time %v", name, t))
	}
}

func (s *Simulator) schedule(t float64, name string, h Handler, fn TypedFunc, a, b any, kind uint8) Event {
	s.checkTime(t, name)
	idx := s.alloc()
	r := &s.recs[idx]
	r.time = t
	r.h = h
	r.fn = fn
	r.a = a
	r.b = b
	r.kind = kind
	r.name = name
	s.push(heapEntry{t: timeKey(t), k: s.seq, idx: idx})
	s.seq++
	return Event{s: s, id: idx + 1, gen: r.gen}
}

// At schedules h to run at absolute time t. Scheduling in the past
// (t < Now) panics: it would corrupt causality.
func (s *Simulator) At(t float64, h Handler) Event {
	return s.AtNamed(t, "", h)
}

// AtNamed is At with a debug label attached to the event.
func (s *Simulator) AtNamed(t float64, name string, h Handler) Event {
	if h == nil {
		panic("des: nil handler")
	}
	return s.schedule(t, name, h, nil, nil, nil, 0)
}

// After schedules h to run d seconds from now. Negative d panics.
func (s *Simulator) After(d float64, h Handler) Event {
	return s.AtNamed(s.now+d, "", h)
}

// AfterNamed is After with a debug label.
func (s *Simulator) AfterNamed(d float64, name string, h Handler) Event {
	return s.AtNamed(s.now+d, name, h)
}

// ScheduleTyped schedules the typed event fn(a, b, kind) at absolute
// time t. Unlike At, the operands ride in the event record itself, so
// no closure needs to be allocated per event — this is the
// steady-state scheduling path of the packet simulator (two events per
// hop). fn must be non-nil; pass a package-level function to keep the
// call allocation-free.
func (s *Simulator) ScheduleTyped(t float64, fn TypedFunc, a, b any, kind uint8) Event {
	if fn == nil {
		panic("des: nil typed handler")
	}
	return s.schedule(t, "", nil, fn, a, b, kind)
}

// Cancel marks an event so that it will not fire. Cancelling an event
// that already fired or was already cancelled is a no-op. It is
// equivalent to e.Cancel.
func (s *Simulator) Cancel(e Event) { e.Cancel() }

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

// Timer is a cancellable, reschedulable one-shot timer created by
// AfterFunc. Retransmission logic uses it: arm, then Stop on ack or
// Reset with a backed-off delay on timeout.
type Timer struct {
	sim  *Simulator
	h    Handler
	name string
	e    Event
}

// AfterFunc schedules h to run d seconds from now and returns a Timer
// that can stop or reschedule it. Unlike a bare Event, the Timer keeps
// the handler, so Reset can re-arm after the event has fired.
func (s *Simulator) AfterFunc(d float64, h Handler) *Timer {
	return s.AfterFuncNamed(d, "", h)
}

// AfterFuncNamed is AfterFunc with a debug label on the underlying
// events.
func (s *Simulator) AfterFuncNamed(d float64, name string, h Handler) *Timer {
	if h == nil {
		panic("des: nil handler")
	}
	t := &Timer{sim: s, h: h, name: name}
	t.e = s.AtNamed(s.now+d, name, h)
	return t
}

// Stop cancels the pending firing. It reports whether it actually
// prevented one; stopping a timer that already fired (or was already
// stopped) is a safe no-op returning false.
func (t *Timer) Stop() bool {
	if !t.e.Pending() {
		return false
	}
	t.e.Cancel()
	return true
}

// Reset re-arms the timer to fire d seconds from now, cancelling any
// pending firing first. It works whether or not the timer has already
// fired, which is what a retransmission loop needs.
func (t *Timer) Reset(d float64) {
	t.Stop()
	t.e = t.sim.AtNamed(t.sim.Now()+d, t.name, t.h)
}

// Pending reports whether a firing is scheduled.
func (t *Timer) Pending() bool { return t.e.Pending() }

// Stop makes Run return after the currently dispatching event (if any)
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// DefaultInterruptEvery is the event-batch size between interrupt
// polls when SetInterrupt is given a non-positive interval. Checking
// roughly once per thousand events keeps the poll invisible next to
// dispatch work while bounding cancellation latency to well under a
// millisecond of wall time.
const DefaultInterruptEvery = 1024

// SetInterrupt installs a cooperative cancellation checkpoint: check
// is polled once per `every` fired events (DefaultInterruptEvery when
// every <= 0), and a non-nil return makes RunUntil stop — after the
// currently dispatching event, never mid-handler — and return that
// error. Pending events stay queued, so the owner can drain or resume.
//
// The checkpoint never perturbs event order or the simulated clock; a
// run that is not interrupted is bit-identical with or without an
// interrupt installed. Pass nil to remove the checkpoint. The intended
// check is a closure over a context.Context's Err method, giving the
// run-to-completion loops of the experiment runners a supervised,
// cancellable lifecycle.
func (s *Simulator) SetInterrupt(every uint64, check func() error) {
	if every == 0 {
		every = DefaultInterruptEvery
	}
	s.interrupt = check
	s.interruptEvery = every
	// The first multiple of every not below fired; runWindow then steps
	// by every with a compare instead of dividing on each event.
	s.nextPoll = (s.fired + every - 1) / every * every
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
// end, never more). It returns ErrEventLimit if the event budget is
// exhausted.
func (s *Simulator) RunUntil(end float64) error {
	s.stopped = false
	if err := s.runWindow(end, true); err != nil {
		return err
	}
	if !math.IsInf(end, 1) && end > s.now {
		s.now = end
	}
	return nil
}

// runWindow dispatches events with time < bound (time <= bound when
// inclusive), honoring Stop, the event limit and the interrupt hook.
// Unlike RunUntil it neither clears a Stop left by an earlier window
// nor advances the clock to the bound: the sharded coordinator calls
// it once per conservative window and performs both at run boundaries.
func (s *Simulator) runWindow(bound float64, inclusive bool) error {
	for {
		// The previous handler scheduled nothing: pop its root now.
		s.settle()
		if len(s.heap) == 0 || s.stopped {
			return nil
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
			s.nextPoll += s.interruptEvery
		}
		idx := s.heap[0].idx
		r := &s.recs[idx]
		if r.time > bound || (!inclusive && r.time == bound) {
			return nil
		}
		// Copy the dispatch fields out and recycle the slot before the
		// callback runs: the callback may schedule (growing the slab) or
		// hold a stale handle to this very slot, both of which the
		// generation stamp already guards. The root stays in the heap,
		// vacant, for the callback's first schedule to take over.
		t, h, fn, a, b, kind := r.time, r.h, r.fn, r.a, r.b, r.kind
		s.release(idx)
		s.vacant = true
		s.now = t
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

// nextEventTime returns the timestamp of the earliest pending event.
// The coordinator uses it to size the next conservative window.
func (s *Simulator) nextEventTime() (float64, bool) {
	s.settle()
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.recs[s.heap[0].idx].time, true
}

// scheduleMsg injects a cross-shard channel delivery: a typed event in
// ordering class 1 whose seq is the partition-independent channel key
// (channel id, per-channel sequence) rather than a draw from the local
// seq counter. The coordinator calls it at window barriers only.
func (s *Simulator) scheduleMsg(t float64, fn TypedFunc, a, b any, kind uint8, key uint64) {
	s.checkTime(t, "channel delivery")
	idx := s.alloc()
	r := &s.recs[idx]
	r.time = t
	r.h = nil
	r.fn = fn
	r.a = a
	r.b = b
	r.kind = kind
	r.name = ""
	s.push(heapEntry{t: timeKey(t), k: clsDelivery | key, idx: idx})
}

// DrainedEvent is one pending event handed back by DrainPending. For
// typed events (ScheduleTyped) the operands and kind are populated and
// Handler is nil; for closure events only Handler is set. Neither is
// invoked — the drain exists so the owner can reclaim resources the
// event record was keeping alive (pooled packets riding typed link
// events, above all) instead of leaking them when a run is torn down.
type DrainedEvent struct {
	Time    float64
	Name    string
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
// resources: Reset alone drops the slab's references, which silently
// strands any pooled packet still riding an in-flight event.
func (s *Simulator) DrainPending(visit func(DrainedEvent)) {
	s.settle()
	for len(s.heap) > 0 {
		idx := s.heap[0].idx
		r := &s.recs[idx]
		if visit != nil {
			visit(DrainedEvent{
				Time: r.time, Name: r.name,
				Handler: r.h, Fn: r.fn, A: r.a, B: r.b, Kind: r.kind,
			})
		}
		s.heapRemove(0)
		s.release(idx)
	}
}

// Reset discards all pending events and rewinds the clock to zero. The
// slab and free list are retained for reuse, and every outstanding
// Event handle is invalidated (Pending reports false; Cancel is a
// no-op). EventLimit is preserved — it is configuration, not run state
// — while the fired counter restarts at zero, so the event budget
// applies afresh to the next run. An installed interrupt hook is
// removed: it is run state (typically a closure over the cancelled
// run's context), and a stale checkpoint must not leak into the next
// run on a reused simulator. Reset drops event payload references
// without visiting them; when pending events may hold pooled resources
// (packets in typed link events), DrainPending first, so the pool's
// accounting survives the teardown.
func (s *Simulator) Reset() {
	s.settle()
	for _, e := range s.heap {
		s.release(e.idx)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	s.interrupt = nil
	s.interruptEvery = 0
}

// --- keyed heap over the slab ----------------------------------------

// push inserts e: into the vacant root when there is one — one sift
// down instead of the pop and push it replaces — else at the tail.
func (s *Simulator) push(e heapEntry) {
	if s.vacant {
		s.vacant = false
		s.heap[0] = e
		s.siftDown(0)
		return
	}
	//hbplint:ignore hotalloc amortized heap growth: the heap's capacity tracks peak pending events, mirroring the slab; steady state is append-into-capacity.
	s.heap = append(s.heap, e)
	s.siftUp(int32(len(s.heap) - 1))
}

// settle pops a vacant root: the dispatched event's handler scheduled
// nothing (or has not returned, having panicked), so nothing took its
// place.
func (s *Simulator) settle() {
	if s.vacant {
		s.vacant = false
		s.heapRemove(0)
	}
}

// heapRemove deletes the element at heap position pos, restoring heap
// order. The removed slot's heapIdx is left untouched (the caller
// releases it).
func (s *Simulator) heapRemove(pos int32) {
	n := int32(len(s.heap)) - 1
	if pos != n {
		s.heap[pos] = s.heap[n]
	}
	s.heap = s.heap[:n]
	if pos < n {
		if !s.siftDown(pos) {
			s.siftUp(pos)
		}
	}
}

func (s *Simulator) siftUp(pos int32) {
	h, recs := s.heap, s.recs
	i := int(pos)
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if below(e, h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		recs[h[i].idx].heapIdx = int32(i)
		i = parent
	}
	h[i] = e
	recs[e.idx].heapIdx = int32(i)
}

// siftDown moves the entry at pos down to its place and reports
// whether it moved. It always records the entry's final position in
// its slab slot, so a caller that just wrote an entry at pos need not.
func (s *Simulator) siftDown(pos int32) bool {
	h, recs := s.heap, s.recs
	i := int(pos)
	e := h[i]
	for {
		c := 2*i + 1
		if c+1 >= len(h) {
			// At most one child: the bottom of the heap.
			if c < len(h) && below(h[c], e) != 0 {
				h[i] = h[c]
				recs[h[i].idx].heapIdx = int32(i)
				i = c
			}
			break
		}
		c += int(below(h[c+1], h[c]))
		if below(h[c], e) == 0 {
			break
		}
		h[i] = h[c]
		recs[h[i].idx].heapIdx = int32(i)
		i = c
	}
	h[i] = e
	recs[e.idx].heapIdx = int32(i)
	return i > int(pos)
}
