package des

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"testing"
)

// ---- long programs against the oracle --------------------------------
//
// The tape programs of oracle_test.go schedule at most oBudget events
// per part, so a delay run there is a few events deep. A long program
// keeps hundreds of events in flight at a few hot offsets, scatters
// more schedules over more offsets than the run table has slots,
// cancels at a run's head, middle and tail, and may drain the queue
// halfway, while the runs are deep.

const (
	longHorizon = 4.0
	longQuantum = 1.0 / 128
)

// longProgram is a generated long program: parts coupled by channels,
// each part drawing its decisions from its own RNG stream inside its
// own handlers, so every engine that agrees on each part's event order
// makes the same draws.
type longProgram struct {
	seed  int64
	parts int
	chans []oChan
	// drain makes the program DrainPending at half the horizon.
	drain bool
}

func genLong(seed int64) longProgram {
	rng := NewRNG(seed)
	// Two of the draw's three values drain. It stays a draw of three
	// because the sweep's depth and offset requirements hold for the
	// twelve programs these draws make.
	lp := longProgram{seed: seed, parts: 1 + rng.Intn(4), drain: rng.Intn(3) < 2}
	for n := rng.Intn(5); n > 0; n-- {
		lp.chans = append(lp.chans, oChan{
			src:  rng.Intn(lp.parts),
			dst:  rng.Intn(lp.parts),
			look: oQuantum * float64(2+rng.Intn(3)),
		})
	}
	return lp
}

// longSource is a self-rescheduling source: every gap it puts one
// event at its home offset, so that run holds home/gap events.
type longSource struct {
	gap, home float64
	typed     bool
	flights   []handle // home-offset events, in scheduling order
}

type longPart struct {
	id    int
	lp    *longProgram
	all   []*longPart
	eng   engine
	rng   *RNG
	out   []int
	offs  []float64 // scattered offsets
	made  int
	trace []string
	// drained logs the events a drain visited; draining makes a handler
	// log itself there instead of running.
	drained  []string
	draining bool
	global   *[]string
}

func (pt *longPart) log(format string, args ...any) {
	s := fmt.Sprintf("%g ", pt.eng.now()) + fmt.Sprintf(format, args...)
	pt.trace = append(pt.trace, s)
	if pt.global != nil {
		*pt.global = append(*pt.global, fmt.Sprintf("p%d %s", pt.id, s))
	}
}

func (pt *longPart) label() string {
	pt.made++
	return fmt.Sprintf("p%d.%d", pt.id, pt.made)
}

// start draws the part's offsets and sources and kicks the sources
// off. It runs outside any handler, at the same point on every engine.
func (pt *longPart) start() {
	// Up to 60 offsets a part, so four parts overflow the 64-slot run
	// table; some are quantised (ties with the hot offsets), the rest
	// arbitrary, which puts full-mantissa times on the clock.
	pt.offs = pt.offs[:0]
	for n := 8 + pt.rng.Intn(53); n > 0; n-- {
		if pt.rng.Intn(2) == 0 {
			pt.offs = append(pt.offs, longQuantum*float64(1+pt.rng.Intn(256)))
		} else {
			pt.offs = append(pt.offs, 2*pt.rng.Float64())
		}
	}
	for n := 1 + pt.rng.Intn(2); n > 0; n-- {
		src := &longSource{
			gap:   longQuantum * float64(1+pt.rng.Intn(3)),
			home:  float64(1 + pt.rng.Intn(3)),
			typed: pt.rng.Intn(2) == 0,
		}
		pt.at(pt.eng.now()+src.gap*float64(pt.rng.Intn(4)), src.typed, pt.tick(src))
	}
}

func (pt *longPart) at(t float64, typed bool, h func()) handle {
	if typed {
		return pt.eng.typed(t, h)
	}
	return pt.eng.at(t, h)
}

// flight is an ordinary event: it logs itself and now and then
// schedules a follow-up at a scattered offset.
func (pt *longPart) flight(label string, t float64) func() {
	return func() {
		if pt.draining {
			pt.drained = append(pt.drained, fmt.Sprintf("%s@%g", label, t))
			return
		}
		pt.log("%s", label)
		if pt.rng.Intn(8) == 0 {
			u := pt.eng.now() + pt.offs[pt.rng.Intn(len(pt.offs))]
			pt.at(u, pt.rng.Intn(2) == 0, pt.flight(pt.label(), u))
		}
	}
}

func (pt *longPart) tick(src *longSource) func() {
	return func() {
		if pt.draining {
			pt.drained = append(pt.drained, "tick")
			return
		}
		now := pt.eng.now()
		t := now + src.home
		src.flights = append(src.flights, pt.at(t, src.typed, pt.flight(pt.label(), t)))
		switch r := pt.rng.Intn(32); {
		case r < 8:
			u := now + pt.offs[pt.rng.Intn(len(pt.offs))]
			pt.at(u, r&1 == 0, pt.flight(pt.label(), u))
		case r < 14:
			pt.cancel(src, r%3)
		case r < 16:
			if lo, hi, ok := tiePair(now); ok {
				// hi first: lo then shares hi's offset with a lower key,
				// so it must not join hi's run.
				pt.at(hi, false, pt.flight(pt.label(), hi))
				pt.at(lo, false, pt.flight(pt.label(), lo))
			}
		case r < 18:
			if len(pt.out) > 0 {
				ci := pt.out[pt.rng.Intn(len(pt.out))]
				c := pt.lp.chans[ci]
				d := c.look + oQuantum*float64(pt.rng.Intn(2))
				pt.eng.send(ci, d, pt.all[c.dst].flight(pt.label(), now+d))
			}
		}
		pt.at(now+src.gap, src.typed, pt.tick(src))
	}
}

// cancel cancels one of src's home-offset events still in flight: the
// oldest (0), the middle one (1) or the newest (2) — the run's head,
// middle and tail when src is alone on its offset.
func (pt *longPart) cancel(src *longSource, pos int) {
	for len(src.flights) > 0 && !src.flights[0].Pending() {
		src.flights = src.flights[1:]
	}
	n := len(src.flights)
	if n == 0 {
		return
	}
	i := [3]int{0, n / 2, n - 1}[pos]
	h := src.flights[i]
	pt.log("cancel %d/%d pending=%v", i, n, h.Pending())
	h.Cancel()
}

// tiePair returns lo < hi whose offsets from now round to the same
// float64: now is M·2^p with M odd, and with u = 2^(p+1) the exact
// offsets of hi and lo are x + u/2 and x − u/2 for an even multiple x
// of u, a tie that rounds both to x. An append that did not compare
// keys would link lo behind hi.
func tiePair(now float64) (lo, hi float64, ok bool) {
	b := math.Float64bits(now)
	e := int(b>>52) & 0x7ff
	if now <= 0 || e == 0 {
		return 0, 0, false
	}
	m := b&(1<<52-1) | 1<<52
	p := e - 1075 + bits.TrailingZeros64(m)
	if p+54 > 1023 {
		return 0, 0, false
	}
	u := math.Ldexp(1, p+1)
	x := math.Ldexp(1, p+53) + 2*u
	lo = x + (now - u/2)
	hi = lo + u
	if !(lo < hi) || math.IsInf(hi, 0) || hi-now != lo-now {
		return 0, 0, false
	}
	return lo, hi, true
}

// runView binds a part to the sequential engine and records each
// scheduled event's offset by slab slot, for checkRuns.
type runView struct {
	simView
	offs map[int32]uint64
}

func (v runView) note(e Event, t float64) Event {
	v.offs[e.id-1] = math.Float64bits(t - v.sim.now)
	return e
}

func (v runView) at(t float64, h func()) handle {
	return v.note(v.sim.At(t, h), t)
}

func (v runView) typed(t float64, h func()) handle {
	return v.note(v.sim.ScheduleTyped(t, callTyped, h, nil, 0), t)
}

// runShape is what checkRuns saw: the longest run, and how many
// distinct offsets the queued events were scheduled at.
type runShape struct{ deepest, offsets int }

// checkRuns walks the queue and checks its shape: heap order over the
// run heads, every run sorted and of one offset, every non-empty table
// slot at the tail of a run of its offset, Pending equal to the live
// events, and every slot not on the free list queued. offs maps slab
// slots to the offsets their events were scheduled at; with nil offs
// the offsets go unchecked.
func checkRuns(s *Simulator, offs map[int32]uint64) (runShape, error) {
	var shape runShape
	if s.vacant {
		return shape, errors.New("vacant root outside dispatch")
	}
	live, queued := 0, 0
	seen := map[uint64]bool{}
	for i, e := range s.heap {
		if i > 0 && below(e, s.heap[(i-1)/2]) != 0 {
			return shape, fmt.Errorf("heap entry %d sorts before its parent", i)
		}
		if e != s.recs[e.idx].key(e.idx) {
			return shape, fmt.Errorf("heap entry %d holds a stale key", i)
		}
		for idx, prev, depth := e.idx, e, 1; ; depth++ {
			r := &s.recs[idx]
			queued++
			seen[offs[idx]] = true
			shape.deepest = max(shape.deepest, depth)
			if r.live() {
				live++
			}
			if r.next < 0 {
				break
			}
			k := s.recs[r.next].key(r.next)
			if below(prev, k) == 0 {
				return shape, fmt.Errorf("run of slot %d not sorted at slot %d", e.idx, r.next)
			}
			if offs != nil && offs[idx] != offs[r.next] {
				return shape, fmt.Errorf("run of slot %d mixes offsets %g and %g", e.idx,
					math.Float64frombits(offs[idx]), math.Float64frombits(offs[r.next]))
			}
			idx, prev = r.next, k
		}
	}
	shape.offsets = len(seen)
	if live != s.Pending() {
		return shape, fmt.Errorf("%d live events queued, Pending %d", live, s.Pending())
	}
	if held := len(s.recs) - len(s.free); queued != held {
		return shape, fmt.Errorf("%d events queued, %d slots held", queued, held)
	}
	for i, rn := range s.runs {
		if rn.tail == 0 || s.recs[rn.tail-1].gen != rn.gen {
			continue
		}
		if s.recs[rn.tail-1].next >= 0 {
			return shape, fmt.Errorf("run slot %d: tail is not the end of its run", i)
		}
		if offs != nil && offs[rn.tail-1] != rn.off {
			return shape, fmt.Errorf("run slot %d: tail offset differs from the slot's", i)
		}
	}
	return shape, nil
}

// longOutcome is what a long program's run is compared on.
type longOutcome struct {
	traces, drained [][]string
	global          []string
	// ends holds fired/pending/now at each segment's end.
	ends []string
	err  error
	// shape is the widest queue shape checkRuns saw (sequential engine).
	shape runShape
}

// run executes the program on the oracle (width < 0), the sequential
// Simulator (width 0) or a ShardedSimulator of that width with part i
// on shard i mod width. On the sequential engine it checks the queue's
// shape at every segment end, failing t on a malformed queue.
func (lp longProgram) run(t *testing.T, width int) longOutcome {
	parts := make([]*longPart, lp.parts)
	var global []string
	for i := range parts {
		parts[i] = &longPart{id: i, lp: &lp, all: parts, rng: NewRNG(DeriveSeed(lp.seed, int64(i)))}
		if width <= 1 {
			parts[i].global = &global
		}
	}
	for ci, c := range lp.chans {
		parts[c.src].out = append(parts[c.src].out, ci)
	}
	var (
		res   longOutcome
		drv   driver
		drain func()
		check = func(string) {}
	)
	draining := func(on bool) {
		for _, pt := range parts {
			pt.draining = on
		}
	}
	visit := func(ev DrainedEvent) {
		if ev.Handler != nil {
			ev.Handler()
		} else {
			ev.A.(func())()
		}
	}
	switch {
	case width < 0:
		o := &oracle{}
		for _, pt := range parts {
			pt.eng = oracleView{o: o, seq: make([]uint32, len(lp.chans))}
		}
		drv = o
		drain = func() {
			for len(o.q) > 0 {
				heap.Pop(&o.q).(*oEvent).h()
			}
		}
	case width == 0:
		sim := New()
		v := runView{
			simView: simView{sim: sim, seq: make([]uint32, len(lp.chans)), count: sim.Pending},
			offs:    map[int32]uint64{},
		}
		for _, pt := range parts {
			pt.eng = v
		}
		drv = sim
		drain = func() { sim.DrainPending(visit) }
		check = func(when string) {
			shape, err := checkRuns(sim, v.offs)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", lp.seed, when, err)
			}
			res.shape.deepest = max(res.shape.deepest, shape.deepest)
			res.shape.offsets = max(res.shape.offsets, shape.offsets)
		}
	default:
		ss := NewSharded(1, width)
		chans := make([]*Channel, len(lp.chans))
		for i, c := range lp.chans {
			chans[i] = ss.NewChannel(c.src%width, c.dst%width, c.look)
		}
		for i, pt := range parts {
			pt.eng = simView{sim: ss.Shard(i % width), chans: chans, count: ss.Pending}
		}
		drv = ss
		drain = func() { ss.DrainPending(visit) }
	}
	segment := func(end float64) bool {
		res.err = drv.RunUntil(end)
		res.ends = append(res.ends, fmt.Sprintf("%d/%d/%g", drv.Fired(), drv.Pending(), drv.Now()))
		return res.err == nil
	}
	for _, pt := range parts {
		pt.start()
	}
	if segment(longHorizon / 2) {
		check("at half the horizon")
		if lp.drain {
			draining(true)
			drain()
			draining(false)
			check("after the drain")
			res.ends = append(res.ends, fmt.Sprintf("pending %d", drv.Pending()))
			for _, pt := range parts {
				pt.start()
			}
		}
		if segment(longHorizon) {
			check("at the horizon")
			draining(true)
			drain()
			draining(false)
		}
	}
	res.global = global
	for _, pt := range parts {
		res.traces = append(res.traces, pt.trace)
		d := pt.drained
		if width > 1 {
			// A wide drain visits shard by shard, then the channel
			// buffers: the same events, not in dispatch order.
			d = append([]string(nil), d...)
			sort.Strings(d)
		}
		res.drained = append(res.drained, d)
	}
	return res
}

// checkLong runs a long program on the oracle and every engine it
// qualifies for, and fails on the first disagreement.
func checkLong(t *testing.T, lp longProgram) runShape {
	t.Helper()
	var shape runShape
	want := lp.run(t, -1)
	if want.err != nil {
		t.Fatalf("seed %d: oracle: %v", lp.seed, want.err)
	}
	for _, w := range []int{0, 1, 2, 3, 4} {
		name := "sequential engine"
		if w > 0 {
			name = fmt.Sprintf("sharded engine at width %d", w)
		}
		got := lp.run(t, w)
		if w == 0 {
			shape = got.shape
		}
		if got.err != nil {
			t.Fatalf("seed %d: %s: %v", lp.seed, name, got.err)
		}
		for i := range want.traces {
			if d := firstDiff(want.traces[i], got.traces[i]); d != "" {
				t.Fatalf("seed %d: %s: part %d diverged at %s", lp.seed, name, i, d)
			}
			wd := want.drained[i]
			if w > 1 {
				wd = append([]string(nil), wd...)
				sort.Strings(wd)
			}
			if d := firstDiff(wd, got.drained[i]); d != "" {
				t.Fatalf("seed %d: %s: part %d drained differently at %s", lp.seed, name, i, d)
			}
		}
		if d := firstDiff(want.global, got.global); w <= 1 && d != "" {
			t.Fatalf("seed %d: %s: global order diverged at %s", lp.seed, name, d)
		}
		if d := firstDiff(want.ends, got.ends); d != "" {
			t.Fatalf("seed %d: %s: fired/pending/now diverged at %s", lp.seed, name, d)
		}
	}
	return shape
}

// TestEngineMatchesOracleLong is the tier-1 sweep of long programs. It
// also requires the sweep to have reached what it exists for: a run
// hundreds deep, more offsets queued at once than the run table has
// slots, and both a drain and none halfway.
func TestEngineMatchesOracleLong(t *testing.T) {
	var widest runShape
	var drains int
	for seed := int64(1); seed <= 12; seed++ {
		lp := genLong(seed)
		if lp.drain {
			drains++
		}
		shape := checkLong(t, lp)
		widest.deepest = max(widest.deepest, shape.deepest)
		widest.offsets = max(widest.offsets, shape.offsets)
	}
	if widest.deepest < 256 || widest.offsets <= 1<<runBits || drains == 0 || drains == 12 {
		t.Fatalf("deepest run %d events, at most %d offsets queued, %d of 12 drained; want >= 256, > %d and some but not all",
			widest.deepest, widest.offsets, drains, 1<<runBits)
	}
	t.Logf("deepest run %d events, up to %d offsets queued at once", widest.deepest, widest.offsets)
}

// ---- guards on what stays free -----------------------------------------

// streamStep is a constant-offset stream: each event schedules its
// successor one second on, so the 64 events in flight share one run.
func streamStep(a, _ any, _ uint8) {
	s := a.(*Simulator)
	s.ScheduleTyped(s.Now()+1, streamStep, s, nil, 0)
}

// TestAllocsPerRunEvent: an event that joins a delay run, and its
// dispatch promoting the run's next event to the root, allocate
// nothing; and the stream really is one run — one heap entry for 64
// pending events.
func TestAllocsPerRunEvent(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.ScheduleTyped(float64(i)/64, streamStep, s, nil, 0)
	}
	if err := s.RunUntil(4); err != nil { // warm the slab
		t.Fatal(err)
	}
	if len(s.heap) != 1 || s.Pending() != 64 {
		t.Fatalf("%d heap entries for %d pending events of one offset, want 1 and 64", len(s.heap), s.Pending())
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := s.RunUntil(s.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("64 run events allocate %.2f times, want 0", avg)
	}
}

// TestCancelledSlotsRecycled: a loop that schedules an event ten
// seconds out and cancels it a second later — a retransmission timer
// acknowledged in time — holds no slot past a cancelled event's time,
// and Pending counts only the live events.
func TestCancelledSlotsRecycled(t *testing.T) {
	s := New()
	var timer Event
	s.Every(0, 1, func() {
		timer.Cancel()
		timer = s.After(10, func() { t.Error("a cancelled timer fired") })
	})
	for end := 5.5; end < 1000; end += 97 {
		if err := s.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		// The periodic's next tick and the armed timer are live.
		if s.Pending() != 2 {
			t.Fatalf("t=%g: Pending %d, want 2", end, s.Pending())
		}
		if _, err := checkRuns(s, nil); err != nil {
			t.Fatalf("t=%g: %v", end, err)
		}
		// Every slot held is queued (checkRuns), and every queued event,
		// cancelled or not, falls due after now.
		for _, e := range s.heap {
			for idx := e.idx; idx >= 0; idx = s.recs[idx].next {
				if tm := s.recs[idx].time; tm <= end {
					t.Fatalf("t=%g: a slot is still held for an event at %g", end, tm)
				}
			}
		}
		if held := len(s.recs) - len(s.free); held > 12 {
			t.Fatalf("t=%g: %d slots held for 2 live events and 10 s of cancelled timers", end, held)
		}
	}
}

// TestRunAppendKeepsKeyOrder: two events whose offsets from now round
// to the same float64, the later one scheduled first. The earlier one
// must not join the later one's run.
func TestRunAppendKeepsKeyOrder(t *testing.T) {
	s := New()
	var got []float64
	s.At(1+0x1p-51, func() {
		lo, hi, ok := tiePair(s.Now())
		if !ok || hi-s.Now() != lo-s.Now() {
			t.Fatalf("no rounding tie at %v", s.Now())
		}
		s.At(hi, func() { got = append(got, s.Now()) })
		s.At(lo, func() { got = append(got, s.Now()) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !(got[0] < got[1]) {
		t.Fatalf("fired at %v, want two times in increasing order", got)
	}
}
