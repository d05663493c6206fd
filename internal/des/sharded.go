// Sharded parallel simulation: a ShardedSimulator owns K ordinary
// Simulators (one per shard, each with its private slab, heap and
// clock) and drives them in conservative lookahead windows à la
// Chandy–Misra–Bryant.
//
// # Synchronization model
//
// Shards couple only through Channels. A Channel is a unidirectional
// cut edge with a declared lookahead L > 0: every send through it must
// carry a delay ≥ L. The coordinator repeatedly computes
//
//	T = min over shards of the next pending event time
//	W = T + Lmin          (Lmin = min channel lookahead)
//
// and lets every shard dispatch its events with time < W concurrently.
// Any message sent during such a window leaves from an event at time
// u ≥ T with delay ≥ its channel's lookahead ≥ Lmin, so it arrives at
// t = u + delay ≥ W — strictly after everything the window executes.
// Messages buffer in per-channel outboxes (written only by the owning
// source shard) and are injected into destination heaps at the next
// barrier, which is why no shard can ever observe an event out of
// timestamp order. A channel's first send of a window links it into
// its source shard's outbox list, so the barrier visits only the
// channels that carry a message, never the idle ones.
//
// # Workers
//
// The goroutine that calls RunUntil runs shard 0's windows itself; a
// run on more than one shard keeps one worker goroutine for each other
// shard for its whole length, so a shard's working set stays with one
// goroutine. Each barrier hands the next window to the shards that
// have work before its bound and waits until they finish. When every
// shard fits on a P and a CPU of its own (runtime.GOMAXPROCS,
// runtime.NumCPU), a worker waits for its next window, and the
// coordinator for the window's end, by spinning for a bounded time
// before parking: a parked goroutine wakes on whichever P is free, and
// its shard's working set moves with it. The coordinator stops
// spinning early for a worker that has not yet taken its window,
// which is parked or off its CPU. Every return from RunUntil
// stops the workers, so none outlives the run.
//
// # Determinism
//
// For a fixed seed the run is bit-identical on logical time for every
// shard count, provided the model couples its parts only through
// Channels. Two ingredients make that hold:
//
//   - Delivery keys are partition-independent. A delivery is ordered
//     by (time, channel id, channel sequence); channel ids are
//     assigned in creation order, which a deterministic topology
//     builder reproduces identically at any shard count, and the
//     channel sequence counts sends in source-model order. No key ever
//     mentions a shard index or a per-shard counter.
//   - The per-shard heap key (see heapEntry) orders simultaneous
//     events by class then key, so an injected delivery sorts the same
//     whether it was buffered across a real shard boundary or looped
//     through a same-shard channel.
//
// Model state must stay shard-local: an event handler may touch only
// state owned by its shard and send through Channels. The one place
// that may touch several shards' state is the barrier hook
// (SetBarrier), which runs while no shard executes. The hbplint
// determinism analyzer enforces the complementary rule that simulation
// code never reaches for raw goroutine channels.
package des

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// message is one buffered cross-shard send.
type message struct {
	time float64
	key  uint64
	fn   TypedFunc
	a, b any
	kind uint8
}

// Channel is a unidirectional cross-shard edge with conservative
// lookahead. Create one per cut-edge direction at topology-build time
// (creation order defines the delivery tie-break, so build order must
// be deterministic and shard-count-independent). Only code running on
// the source shard may Send.
type Channel struct {
	ss        *ShardedSimulator
	id        uint32
	src, dst  int
	lookahead float64
	seq       uint32
	queue     []message
	// next links the channel into its source shard's outbox list
	// (Simulator.outbox). The channel is on the list exactly while its
	// queue holds a message.
	next *Channel
}

// Send buffers the typed event fn(a, b, kind) for delivery on the
// destination shard at the source shard's now + delay. delay must be
// at least the channel's lookahead — that slack is exactly what lets
// the destination shard run ahead concurrently — and fn must be
// non-nil. The event is injected at the next window barrier with a
// partition-independent ordering key, so the resulting schedule is
// identical at every shard count.
func (c *Channel) Send(delay float64, fn TypedFunc, a, b any, kind uint8) {
	if fn == nil {
		panic("des: nil typed handler")
	}
	if delay < c.lookahead {
		panic(fmt.Sprintf("des: cross-shard send delay %.9g below channel lookahead %.9g", delay, c.lookahead))
	}
	src := c.ss.shards[c.src]
	if len(c.queue) == 0 {
		c.next, src.outbox = src.outbox, c
	}
	c.seq++
	//hbplint:ignore hotalloc amortized outbox growth: the queue is reused across windows (reset to len 0 at each barrier), so capacity reaches the per-window peak and stays.
	c.queue = append(c.queue, message{
		time: src.now + delay,
		key:  uint64(c.id)<<32 | uint64(c.seq),
		fn:   fn, a: a, b: b, kind: kind,
	})
}

// ShardedSimulator drives K per-shard Simulators in conservative
// lookahead windows. It mirrors the single Simulator's run-driver
// surface (Run/RunUntil, SetInterrupt, DrainPending, Now/Fired/Pending)
// but schedules nothing itself: model code schedules on its own
// shard's Simulator (Shard(i)), and a handler that wants the run to
// end calls that Simulator's Stop. With one shard and no channels it
// degenerates to the ordinary sequential engine.
type ShardedSimulator struct {
	shards []*Simulator
	chans  []*Channel
	// lookahead caches the minimum channel lookahead (+Inf with no
	// channels, in which case the first window runs to the horizon).
	lookahead float64

	interrupt func() error
	barrier   func()

	// next holds each shard's next-event time (+Inf when idle), taken
	// once per barrier; runnable lists the shards with work before the
	// window bound. Both are sized once, so a barrier allocates nothing.
	next     []float64
	runnable []int
	// workers[i-1] runs shard i's windows while workersUp; shard 0 runs
	// on the coordinating goroutine. done counts the windows (or, at
	// shutdown, the exits) still outstanding; left counts the same
	// windows and is what a spinning coordinator polls.
	workers   []*worker
	workersUp bool
	done      sync.WaitGroup
	left      atomic.Int32
	// spin is taken once per RunUntil: every shard has a P and a CPU of
	// its own, so a goroutine that spins holds none that another shard
	// needs.
	spin bool
}

// spinCheck: every spinCheck loads of its spin (spinLoads, about one
// forest-sharded window) the coordinator also looks for a worker that
// has not taken its window, and parks at once if it finds one: that
// worker is parked or off its CPU, and the rest of the budget would
// burn for nothing.
const spinCheck = 1 << 12

// worker runs one shard's windows on its own goroutine for the length
// of a RunUntil. The coordinator arms it with a window under mu, sets
// ready and wakes it; the worker takes the window, runs it, records its
// error and reports to the simulator's done group and left count.
type worker struct {
	s    *Simulator
	mu   sync.Mutex
	wake sync.Cond
	// ready is set with armed or quit; a worker spinning between
	// windows polls it instead of taking mu.
	ready atomic.Bool
	// Guarded by mu: a window is handed over and not yet taken, or the
	// run is over.
	armed, quit bool
	bound       float64
	inclusive   bool
	// err is the last window's result. The worker writes it before
	// done.Done; the coordinator reads it after done.Wait.
	err error
}

// loop is a worker goroutine's body: wait for a window or the end of
// the run, run the window, report, repeat. With spin it polls ready
// for up to spinLoads loads before it parks.
func (w *worker) loop(done *sync.WaitGroup, left *atomic.Int32, spin bool) {
	for {
		for i := 0; spin && i < spinLoads && !w.ready.Load(); i++ {
		}
		w.mu.Lock()
		for !w.armed && !w.quit {
			w.wake.Wait()
		}
		if w.quit {
			w.mu.Unlock()
			done.Done()
			return
		}
		w.armed = false
		w.ready.Store(false)
		bound, inclusive := w.bound, w.inclusive
		w.mu.Unlock()
		w.err = w.s.runWindow(bound, inclusive)
		// Done before the countdown: a coordinator that reads left == 0
		// finds the group at zero, so its Wait returns without parking.
		done.Done()
		left.Add(-1)
	}
}

// arm hands w the window (bound, inclusive) and wakes it.
func (w *worker) arm(bound float64, inclusive bool) {
	w.mu.Lock()
	w.bound, w.inclusive, w.armed = bound, inclusive, true
	w.ready.Store(true)
	w.mu.Unlock()
	w.wake.Signal()
}

// stop tells w's goroutine, idle between windows, to return.
func (w *worker) stop() {
	w.mu.Lock()
	w.quit = true
	w.ready.Store(true)
	w.mu.Unlock()
	w.wake.Signal()
}

// NewSharded returns a sharded simulator with n empty shards. seed is
// unused: the engine draws no random numbers, and model code derives
// its streams from stable model labels with DeriveSeed. The parameter
// keeps the signature cmd/hbpbench calls and goes with ROADMAP item 13,
// the next change to the benchmark harness.
func NewSharded(seed int64, n int) *ShardedSimulator {
	if n < 1 {
		panic("des: need at least one shard")
	}
	ss := &ShardedSimulator{lookahead: math.Inf(1)}
	ss.shards = make([]*Simulator, n)
	ss.next = make([]float64, n)
	ss.runnable = make([]int, n)
	for i := range ss.shards {
		ss.shards[i] = New()
	}
	return ss
}

// Shards returns the shard count.
func (ss *ShardedSimulator) Shards() int { return len(ss.shards) }

// Shard returns shard i's Simulator. Model components belonging to
// shard i bind to it exactly as they would to a standalone Simulator.
func (ss *ShardedSimulator) Shard(i int) *Simulator { return ss.shards[i] }

// NewChannel creates the cross-shard edge src→dst with the given
// lookahead (must be positive: a zero-lookahead cut would collapse the
// conservative window to nothing). src may equal dst: a model cut
// along logical part boundaries keeps its cut edges channel-routed
// even when both parts land on the same shard, which is what keeps
// event order identical across shard counts.
func (ss *ShardedSimulator) NewChannel(src, dst int, lookahead float64) *Channel {
	if src < 0 || src >= len(ss.shards) || dst < 0 || dst >= len(ss.shards) {
		panic("des: channel endpoint out of range")
	}
	if !(lookahead > 0) || math.IsInf(lookahead, 0) || math.IsNaN(lookahead) {
		panic(fmt.Sprintf("des: channel lookahead must be positive and finite, got %v", lookahead))
	}
	c := &Channel{ss: ss, id: channelID(len(ss.chans)), src: src, dst: dst, lookahead: lookahead}
	ss.chans = append(ss.chans, c)
	if lookahead < ss.lookahead {
		ss.lookahead = lookahead
	}
	return c
}

// channelID returns the id of the n-th channel. A delivery key is
// id<<32 | seq and shares its heap word with the class bit (bit 63,
// see heapEntry), so ids stop below 2³¹.
func channelID(n int) uint32 {
	if n >= 1<<31 {
		panic(fmt.Sprintf("des: channel %d exceeds the 2^31 channel ids a delivery key can hold", n))
	}
	return uint32(n)
}

// Now returns the completed simulation horizon: the minimum shard
// clock. After RunUntil(end) returns nil every shard clock reads end,
// unless a Stop ended the run.
func (ss *ShardedSimulator) Now() float64 {
	t := math.Inf(1)
	for _, s := range ss.shards {
		if s.now < t {
			t = s.now
		}
	}
	return t
}

// Fired returns the total events dispatched across all shards.
func (ss *ShardedSimulator) Fired() uint64 {
	var n uint64
	for _, s := range ss.shards {
		n += s.fired
	}
	return n
}

// Pending returns live queued events across all shards plus buffered,
// not yet injected channel messages.
func (ss *ShardedSimulator) Pending() int {
	n := 0
	for _, s := range ss.shards {
		n += s.Pending()
		for c := s.outbox; c != nil; c = c.next {
			n += len(c.queue)
		}
	}
	return n
}

// SetInterrupt installs a cooperative cancellation checkpoint polled
// once per window barrier — barriers are the engine's natural safe
// points, so there is no per-event cadence to choose. Pass nil to
// remove it.
func (ss *ShardedSimulator) SetInterrupt(check func() error) {
	ss.interrupt = check
}

// SetBarrier installs a hook run once per window barrier on the
// coordinating goroutine, after buffered channel messages are injected
// and while no shard is executing — the one point where code may touch
// state belonging to several shards. The hook must leave the event
// schedule alone: it may not schedule, cancel or send. Pass nil to
// remove it.
func (ss *ShardedSimulator) SetBarrier(hook func()) {
	ss.barrier = hook
}

// Run dispatches until every shard is idle or a shard's Stop is called.
func (ss *ShardedSimulator) Run() error { return ss.RunUntil(math.Inf(1)) }

// RunUntil dispatches events with time <= end across all shards in
// conservative windows, then advances every shard clock to end. A run
// that a shard's Stop ended leaves every shard clock where its last
// event put it, so a resumed run fires what is still pending without a
// clock going backwards. The result — which events fire, at what
// logical times, in what causality-relevant order — is bit-identical
// for any shard count.
func (ss *ShardedSimulator) RunUntil(end float64) error {
	for _, s := range ss.shards {
		s.stopped = false
	}
	ss.spin = len(ss.shards) <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	defer ss.stopWorkers()
	stopped := false
	for {
		if ss.interrupt != nil {
			if err := ss.interrupt(); err != nil {
				return err
			}
		}
		// Inject buffered channel messages (including any sent during
		// setup, before the run) so window sizing sees them as pending
		// events.
		ss.inject()
		if ss.barrier != nil {
			ss.barrier()
		}
		// One pass over the shards: a Stop ends the run, and each
		// shard's next-event time sizes the window here and picks the
		// runnable set in runWindows.
		t := math.Inf(1)
		for i, s := range ss.shards {
			stopped = stopped || s.stopped
			nt, ok := s.nextEventTime()
			if !ok {
				nt = math.Inf(1)
			}
			ss.next[i] = nt
			t = min(t, nt)
		}
		if stopped || math.IsInf(t, 1) || t > end {
			break
		}
		bound, inclusive := t+ss.lookahead, false
		if bound > end || math.IsInf(bound, 1) {
			bound, inclusive = end, true
		}
		if err := ss.runWindows(bound, inclusive); err != nil {
			return err
		}
	}
	if !stopped {
		for _, s := range ss.shards {
			s.ranTo(end)
		}
	}
	return nil
}

// inject drains the outboxes of the channels on each shard's outbox
// list into their destination heaps, so a barrier costs the channels
// that carry a message, not all of them. Order here is immaterial for
// the schedule — the heap comparator orders deliveries by their
// partition-independent keys — and walking the lists keeps the
// injection itself deterministic and allocation-free.
func (ss *ShardedSimulator) inject() {
	for _, s := range ss.shards {
		for c := s.outbox; c != nil; c = c.unlink() {
			dst := ss.shards[c.dst]
			for i := range c.queue {
				m := &c.queue[i]
				dst.scheduleMsg(m.time, m.fn, m.a, m.b, m.kind, m.key)
				*m = message{}
			}
			c.queue = c.queue[:0]
		}
		s.outbox = nil
	}
}

// unlink takes c off its outbox list and returns the next channel on it.
func (c *Channel) unlink() *Channel {
	next := c.next
	c.next = nil
	return next
}

// runWindows executes one conservative window on every shard whose
// next event (ss.next, taken at this barrier) falls before the bound.
// Shard 0 runs on the coordinating goroutine and every other runnable
// shard on its worker — shards share no state and channel outboxes
// are single-writer, so the only synchronization needed is the barrier
// itself. Errors surface in shard order.
func (ss *ShardedSimulator) runWindows(bound float64, inclusive bool) error {
	own, n := false, 0
	for i, nt := range ss.next {
		if nt < bound || (inclusive && nt == bound && !math.IsInf(nt, 1)) {
			if i == 0 {
				own = true
				continue
			}
			ss.runnable[n] = i
			n++
		}
	}
	run := ss.runnable[:n]
	if n > 0 {
		if !ss.workersUp {
			ss.startWorkers()
		}
		ss.done.Add(n)
		ss.left.Add(int32(n))
		for _, i := range run {
			ss.workers[i-1].arm(bound, inclusive)
		}
	}
	var err error
	if own {
		err = ss.shards[0].runWindow(bound, inclusive)
	}
	if n == 0 {
		return err
	}
	for i := 1; ss.spin && i <= spinLoads && ss.left.Load() != 0; i++ {
		if i%spinCheck == 0 && ss.untaken(run) {
			break
		}
	}
	ss.done.Wait()
	if err != nil {
		return err
	}
	for _, i := range run {
		if err := ss.workers[i-1].err; err != nil {
			return err
		}
	}
	return nil
}

// untaken reports whether a worker in run has not yet taken the window
// it was armed with.
func (ss *ShardedSimulator) untaken(run []int) bool {
	for _, i := range run {
		if ss.workers[i-1].ready.Load() {
			return true
		}
	}
	return false
}

// startWorkers starts one worker goroutine for each shard but shard 0
// for the current run. The worker records are built on first use and
// kept.
func (ss *ShardedSimulator) startWorkers() {
	if ss.workers == nil {
		ss.workers = make([]*worker, len(ss.shards)-1)
		for i, s := range ss.shards[1:] {
			w := &worker{s: s}
			w.wake.L = &w.mu
			ss.workers[i] = w
		}
	}
	for _, w := range ss.workers {
		//hbplint:ignore determinism conservative-window parallelism: each worker runs one shard's private heap between barriers, shards share no state, and the barrier merge orders cross-shard deliveries by partition-independent keys.
		go w.loop(&ss.done, &ss.left, ss.spin)
	}
	ss.workersUp = true
}

// stopWorkers ends the run's worker goroutines, if it started any, and
// waits until every one has returned.
func (ss *ShardedSimulator) stopWorkers() {
	if !ss.workersUp {
		return
	}
	ss.done.Add(len(ss.workers))
	for _, w := range ss.workers {
		w.stop()
	}
	ss.done.Wait()
	for _, w := range ss.workers {
		w.quit, w.err = false, nil
		w.ready.Store(false)
	}
	ss.workersUp = false
}

// DrainPending drains every shard's pending events in shard order,
// then every buffered channel message in channel order, passing each
// to visit, and leaves every outbox list empty. Like the sequential
// DrainPending this is the teardown path that lets owners reclaim
// resources (pooled packets on in-flight events or in cut-edge
// transit) before leak-checking.
func (ss *ShardedSimulator) DrainPending(visit func(DrainedEvent)) {
	for _, s := range ss.shards {
		s.DrainPending(visit)
	}
	for _, c := range ss.chans {
		for i := range c.queue {
			m := &c.queue[i]
			if visit != nil {
				visit(DrainedEvent{Time: m.time, Fn: m.fn, A: m.a, B: m.b, Kind: m.kind})
			}
			*m = message{}
		}
		c.queue = c.queue[:0]
		c.next = nil
	}
	for _, s := range ss.shards {
		s.outbox = nil
	}
}
