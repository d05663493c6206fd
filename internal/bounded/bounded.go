// Package bounded provides the small fixed-budget state containers the
// hardened control plane is built on. Every piece of defense state
// that attacker-controlled packets can grow — flood dedup sets, replay
// windows — must have a hard cap with *deterministic* eviction, so an
// adversary can push the defense into graceful degradation but never
// into unbounded memory growth, and so fixed-seed runs stay
// bit-identical (see DESIGN.md, "Threat model & graceful degradation").
package bounded

// Dedup is a duplicate-suppression set over int64 identifiers with a
// hard capacity. When full, inserting a new identifier evicts the
// oldest remembered one (FIFO): the window of suppressed duplicates
// slides forward deterministically instead of the set growing without
// bound. A flood replayed from outside the window is processed again —
// that is the graceful-degradation tradeoff: bounded memory, best-effort
// suppression.
type Dedup struct {
	cap  int
	seen map[int64]bool
	// ring holds insertion order; head is the oldest live slot.
	ring []int64
	head int

	// Evictions counts identifiers forgotten to make room.
	Evictions int64
}

// NewDedup returns a dedup set remembering at most capacity
// identifiers. capacity <= 0 panics: a cap-less dedup is exactly the
// unbounded-growth bug this package exists to prevent. The cap bounds
// the set; it is not a size hint: the map and ring grow with use, so
// a set that sees ten identifiers costs ten entries, not capacity.
func NewDedup(capacity int) *Dedup {
	if capacity <= 0 {
		panic("bounded: non-positive dedup capacity")
	}
	return &Dedup{cap: capacity, seen: make(map[int64]bool)}
}

// Len returns the number of remembered identifiers.
func (d *Dedup) Len() int { return len(d.seen) }

// Reset forgets every remembered identifier, returning the set to its
// construction state (capacity and eviction counter are preserved).
// Run teardown uses it so a completed scenario's state accounting
// returns to zero.
func (d *Dedup) Reset() {
	clear(d.seen)
	d.ring = d.ring[:0]
	d.head = 0
}

// Cap returns the configured capacity.
func (d *Dedup) Cap() int { return d.cap }

// Seen reports whether id is currently remembered, without inserting.
func (d *Dedup) Seen(id int64) bool { return d.seen[id] }

// Check inserts id and reports whether it was already remembered
// (true = duplicate, suppress). New identifiers evict the oldest entry
// once the set is at capacity.
func (d *Dedup) Check(id int64) bool {
	if d.seen[id] {
		return true
	}
	if len(d.ring) < d.cap {
		d.ring = append(d.ring, id)
	} else {
		delete(d.seen, d.ring[d.head])
		d.Evictions++
		d.ring[d.head] = id
		d.head++
		if d.head == d.cap {
			d.head = 0
		}
	}
	d.seen[id] = true
	return false
}

// ReplayWindow is an anti-replay filter over sequence numbers, one
// sliding window per stream. It accepts each sequence number at most
// once and remembers only the last Span numbers below the highest seen,
// like the IPsec anti-replay window: memory per stream is one word plus
// a fixed bitmap regardless of how many frames an attacker replays.
// Sequence numbers at or below highest-Span are rejected outright —
// too old to distinguish from a replay.
type ReplayWindow struct {
	span    int
	streams map[int64]*replayStream
	maxStr  int

	// Replays counts rejected duplicates/too-old sequence numbers.
	Replays int64
	// StreamEvictions counts per-stream state discarded to stay within
	// the stream budget.
	StreamEvictions int64

	admit int64 // monotone admission counter for FIFO stream eviction
}

type replayStream struct {
	highest int64
	// bits marks seen sequence numbers in (highest-span, highest]:
	// bit i covers highest-i.
	bits []uint64
	// order is the stream's admission index, for FIFO eviction.
	order int64
}

// NewReplayWindow returns a filter with the given per-stream window
// span and a hard cap on concurrently tracked streams. Both must be
// positive. Like Dedup's, the stream cap bounds the map without
// pre-sizing it.
func NewReplayWindow(span, maxStreams int) *ReplayWindow {
	if span <= 0 || maxStreams <= 0 {
		panic("bounded: non-positive replay window parameters")
	}
	return &ReplayWindow{span: span, streams: make(map[int64]*replayStream), maxStr: maxStreams}
}

// Streams returns the number of streams currently tracked.
func (w *ReplayWindow) Streams() int { return len(w.streams) }

// Accept reports whether (stream, seq) is fresh, recording it if so.
// seq must be positive; zero or negative is always rejected (the
// unsequenced legacy path must not reach the filter).
func (w *ReplayWindow) Accept(stream, seq int64) bool {
	if seq <= 0 {
		w.Replays++
		return false
	}
	st := w.streams[stream]
	if st == nil {
		if len(w.streams) >= w.maxStr {
			w.evictOldestStream()
		}
		w.admit++
		st = &replayStream{bits: make([]uint64, (w.span+63)/64), order: w.admit}
		w.streams[stream] = st
	}
	switch {
	case seq > st.highest:
		shift := seq - st.highest
		st.shiftUp(shift)
		st.highest = seq
		st.set(0)
		return true
	case seq <= st.highest-int64(w.span):
		w.Replays++
		return false
	default:
		off := int(st.highest - seq)
		if st.get(off) {
			w.Replays++
			return false
		}
		st.set(off)
		return true
	}
}

// evictOldestStream drops the stream admitted earliest — deterministic
// FIFO, independent of map iteration order.
func (w *ReplayWindow) evictOldestStream() {
	var victim int64
	var vs *replayStream
	//hbplint:ignore determinism min-scan over the unique per-stream admission counter, so the victim is the same whatever order the map yields.
	for id, st := range w.streams {
		if vs == nil || st.order < vs.order {
			victim, vs = id, st
		}
	}
	delete(w.streams, victim)
	w.StreamEvictions++
}

func (s *replayStream) set(off int) { s.bits[off/64] |= 1 << (off % 64) }

func (s *replayStream) get(off int) bool { return s.bits[off/64]&(1<<(off%64)) != 0 }

// shiftUp slides the window forward by n positions (new highest).
func (s *replayStream) shiftUp(n int64) {
	if n >= int64(len(s.bits)*64) {
		for i := range s.bits {
			s.bits[i] = 0
		}
		return
	}
	words, rem := int(n/64), uint(n%64)
	for i := len(s.bits) - 1; i >= 0; i-- {
		var v uint64
		if i-words >= 0 {
			v = s.bits[i-words] << rem
			if rem > 0 && i-words-1 >= 0 {
				v |= s.bits[i-words-1] >> (64 - rem)
			}
		}
		s.bits[i] = v
	}
}
