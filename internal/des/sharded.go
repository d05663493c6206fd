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
// timestamp order.
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
	"sync"
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
// surface (Run/RunUntil, SetInterrupt, EventLimit, DrainPending,
// Now/Fired/Pending) but schedules nothing itself: model code
// schedules on its own shard's Simulator (Shard(i)), and a handler
// that wants the run to end calls that Simulator's Stop. With one
// shard and no channels it degenerates to the ordinary sequential
// engine.
type ShardedSimulator struct {
	shards []*Simulator
	rngs   []*RNG
	chans  []*Channel
	// lookahead caches the minimum channel lookahead (+Inf with no
	// channels, in which case the first window runs to the horizon).
	lookahead float64

	// EventLimit, when non-zero, bounds the total events fired across
	// all shards: a run that would dispatch more returns ErrEventLimit.
	// The check is exact at window barriers; within one window each
	// shard stops after at most the remaining budget, so the overshoot
	// before the abort is bounded by one window per shard. With the
	// whole model on one shard it is exact, matching the sequential
	// engine.
	EventLimit uint64

	interrupt func() error
	barrier   func()
}

// NewSharded returns a sharded simulator with n empty shards. Shard
// RNG streams derive from seed via ShardSeed.
func NewSharded(seed int64, n int) *ShardedSimulator {
	if n < 1 {
		panic("des: need at least one shard")
	}
	ss := &ShardedSimulator{lookahead: math.Inf(1)}
	ss.shards = make([]*Simulator, n)
	ss.rngs = make([]*RNG, n)
	for i := range ss.shards {
		ss.shards[i] = New()
		ss.rngs[i] = NewRNG(ShardSeed(seed, i))
	}
	return ss
}

// ShardSeed derives shard i's RNG seed from the scenario seed with the
// splitmix mixing of DeriveSeed. It is a pure function of (seed, i) —
// stable across partitionings and shard counts.
func ShardSeed(seed int64, shard int) int64 {
	return DeriveSeed(seed, int64(shard)+1)
}

// Shards returns the shard count.
func (ss *ShardedSimulator) Shards() int { return len(ss.shards) }

// Shard returns shard i's Simulator. Model components belonging to
// shard i bind to it exactly as they would to a standalone Simulator.
func (ss *ShardedSimulator) Shard(i int) *Simulator { return ss.shards[i] }

// ShardRNG returns shard i's private RNG stream. Note that streams
// keyed by shard index move with repartitioning; model code that needs
// placement-independent draws should derive its own streams from
// stable model labels with DeriveSeed.
func (ss *ShardedSimulator) ShardRNG(i int) *RNG { return ss.rngs[i] }

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
// clock. After RunUntil(end) returns nil every shard clock reads end.
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
	}
	for _, c := range ss.chans {
		n += len(c.queue)
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

// Run dispatches until every shard is idle, a shard's Stop is called,
// or the event limit is hit.
func (ss *ShardedSimulator) Run() error { return ss.RunUntil(math.Inf(1)) }

// RunUntil dispatches events with time <= end across all shards in
// conservative windows, then advances every shard clock to end. The
// result — which events fire, at what logical times, in what
// causality-relevant order — is bit-identical for any shard count.
func (ss *ShardedSimulator) RunUntil(end float64) error {
	for _, s := range ss.shards {
		s.stopped = false
	}
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
		stopped := false
		for _, s := range ss.shards {
			stopped = stopped || s.stopped
		}
		if stopped {
			break
		}
		t := math.Inf(1)
		for _, s := range ss.shards {
			if nt, ok := s.nextEventTime(); ok && nt < t {
				t = nt
			}
		}
		if math.IsInf(t, 1) || t > end {
			break
		}
		if ss.EventLimit > 0 {
			// Like the sequential engine, fail only when another event
			// is due: a run that fires exactly the budget and then goes
			// idle succeeds.
			fired := ss.Fired()
			if fired >= ss.EventLimit {
				return ErrEventLimit
			}
			remaining := ss.EventLimit - fired
			for _, s := range ss.shards {
				s.EventLimit = s.fired + remaining
			}
		}
		bound, inclusive := t+ss.lookahead, false
		if bound > end || math.IsInf(bound, 1) {
			bound, inclusive = end, true
		}
		if err := ss.runWindows(bound, inclusive); err != nil {
			return err
		}
	}
	if !math.IsInf(end, 1) {
		for _, s := range ss.shards {
			if end > s.now {
				s.now = end
			}
		}
	}
	return nil
}

// inject drains every channel outbox into the destination shard's
// heap, in channel-creation order. Order here is immaterial for the
// schedule — the heap comparator orders deliveries by their
// partition-independent keys — but iterating a slice keeps the
// injection itself deterministic and allocation-free.
func (ss *ShardedSimulator) inject() {
	for _, c := range ss.chans {
		if len(c.queue) == 0 {
			continue
		}
		dst := ss.shards[c.dst]
		for i := range c.queue {
			m := &c.queue[i]
			dst.scheduleMsg(m.time, m.fn, m.a, m.b, m.kind, m.key)
			*m = message{}
		}
		c.queue = c.queue[:0]
	}
}

// runWindows executes one conservative window on every shard that has
// work before the bound. Windows run concurrently on goroutines —
// shards share no state and channel outboxes are single-writer, so the
// only synchronization needed is the barrier itself — except that a
// lone runnable shard executes inline. Errors surface in shard order.
func (ss *ShardedSimulator) runWindows(bound float64, inclusive bool) error {
	var runnable []int
	for i, s := range ss.shards {
		if nt, ok := s.nextEventTime(); ok && (nt < bound || (inclusive && nt == bound)) {
			runnable = append(runnable, i)
		}
	}
	if len(runnable) == 1 {
		return ss.shards[runnable[0]].runWindow(bound, inclusive)
	}
	errs := make([]error, len(runnable))
	var wg sync.WaitGroup
	for j, i := range runnable {
		wg.Add(1)
		s := ss.shards[i]
		slot := &errs[j]
		//hbplint:ignore determinism conservative-window parallelism: each worker runs one shard's private heap between barriers, shards share no state, and the barrier merge orders cross-shard deliveries by partition-independent keys.
		go func() {
			defer wg.Done()
			*slot = s.runWindow(bound, inclusive)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DrainPending drains every shard's pending events in shard order,
// then every buffered channel message in channel order, passing each
// to visit. Like the sequential DrainPending this is the teardown path
// that lets owners reclaim resources (pooled packets on in-flight
// events or in cut-edge transit) before leak-checking.
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
	}
}
