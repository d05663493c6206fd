package des

import (
	"container/heap"
	"errors"
	"fmt"
	"testing"
)

// ---- the reference engine -------------------------------------------

// oEvent is one event of the reference engine. pos is its heap index,
// -1 once it has fired or been cancelled.
type oEvent struct {
	t   float64
	cls uint8
	key uint64
	h   func()
	pos int
	o   *oracle
}

func (e *oEvent) Pending() bool { return e.pos >= 0 }

func (e *oEvent) Cancel() {
	if e.pos >= 0 {
		heap.Remove(&e.o.q, e.pos)
	}
}

type oHeap []*oEvent

func (q oHeap) Len() int { return len(q) }

// Less is the documented dispatch rule: time, then class (local events
// before channel deliveries), then key (scheduling order for locals,
// (channel id, channel sequence) for deliveries).
func (q oHeap) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.cls != b.cls {
		return a.cls < b.cls
	}
	return a.key < b.key
}

func (q oHeap) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}

func (q *oHeap) Push(x any) {
	e := x.(*oEvent)
	e.pos = len(*q)
	*q = append(*q, e)
}

func (q *oHeap) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	e.pos = -1
	return e
}

// oracle is the naive engine the optimised ones must agree with: one
// container/heap of closures, no slab, no handles to go stale, no
// shards, no windows.
type oracle struct {
	now     float64
	seq     uint64
	q       oHeap
	fired   uint64
	limit   uint64
	stopped bool
}

func (o *oracle) push(t float64, cls uint8, key uint64, h func()) *oEvent {
	e := &oEvent{t: t, cls: cls, key: key, h: h, o: o}
	heap.Push(&o.q, e)
	return e
}

func (o *oracle) at(t float64, h func()) *oEvent {
	o.seq++
	return o.push(t, 0, o.seq, h)
}

func (o *oracle) every(start, period float64, h func()) func() {
	stopped := false
	var next *oEvent
	var tick func()
	tick = func() {
		h()
		if !stopped {
			next = o.at(o.now+period, tick)
		}
	}
	next = o.at(start, tick)
	return func() {
		stopped = true
		next.Cancel()
	}
}

func (o *oracle) RunUntil(end float64) error {
	o.stopped = false
	for len(o.q) > 0 && !o.stopped && o.q[0].t <= end {
		e := heap.Pop(&o.q).(*oEvent)
		o.now = e.t
		o.fired++
		if o.limit > 0 && o.fired > o.limit {
			return ErrEventLimit
		}
		e.h()
	}
	o.now = max(o.now, end)
	return nil
}

func (o *oracle) Now() float64  { return o.now }
func (o *oracle) Fired() uint64 { return o.fired }
func (o *oracle) Pending() int  { return len(o.q) }

type oTimer struct {
	o *oracle
	h func()
	e *oEvent
}

func (t *oTimer) Stop() bool {
	if !t.e.Pending() {
		return false
	}
	t.e.Cancel()
	return true
}

func (t *oTimer) Reset(d float64) {
	t.Stop()
	t.e = t.o.at(t.o.now+d, t.h)
}

func (t *oTimer) Pending() bool { return t.e.Pending() }

// ---- one program, three engines -------------------------------------

type handle interface {
	Cancel()
	Pending() bool
}

type timer interface {
	Stop() bool
	Reset(d float64)
	Pending() bool
}

// engine is what a program part sees of the engine it runs on.
type engine interface {
	now() float64
	at(t float64, h func()) handle
	typed(t float64, h func()) handle
	afterFunc(d float64, h func()) timer
	every(start, period float64, h func()) func()
	send(ch int, delay float64, h func())
	stop()
	pending() int
}

// oracleView binds a part to the reference engine. seq numbers each
// channel's sends, as des.Channel does.
type oracleView struct {
	o   *oracle
	seq []uint32
}

func (v oracleView) now() float64                     { return v.o.now }
func (v oracleView) at(t float64, h func()) handle    { return v.o.at(t, h) }
func (v oracleView) typed(t float64, h func()) handle { return v.o.at(t, h) }
func (v oracleView) every(s, p float64, h func()) func() {
	return v.o.every(s, p, h)
}
func (v oracleView) afterFunc(d float64, h func()) timer {
	return &oTimer{o: v.o, h: h, e: v.o.at(v.o.now+d, h)}
}
func (v oracleView) send(ch int, delay float64, h func()) {
	v.seq[ch]++
	v.o.push(v.o.now+delay, 1, uint64(ch)<<32|uint64(v.seq[ch]), h)
}
func (v oracleView) stop()        { v.o.stopped = true }
func (v oracleView) pending() int { return v.o.Pending() }

// simView binds a part to a des.Simulator: the sequential engine, or
// one shard of a sharded one (chans non-nil). On the sequential engine
// a channel send becomes the class-1 event a barrier would inject.
// count is the whole engine's Pending, buffered sends included.
type simView struct {
	sim   *Simulator
	chans []*Channel
	seq   []uint32
	count func() int
}

func callTyped(a, _ any, _ uint8) { a.(func())() }

func (v simView) now() float64                  { return v.sim.Now() }
func (v simView) at(t float64, h func()) handle { return v.sim.At(t, h) }
func (v simView) typed(t float64, h func()) handle {
	return v.sim.ScheduleTyped(t, callTyped, h, nil, 0)
}
func (v simView) every(s, p float64, h func()) func() {
	return v.sim.Every(s, p, h)
}
func (v simView) afterFunc(d float64, h func()) timer { return v.sim.AfterFunc(d, h) }
func (v simView) send(ch int, delay float64, h func()) {
	if v.chans != nil {
		v.chans[ch].Send(delay, callTyped, h, nil, 0)
		return
	}
	v.seq[ch]++
	v.sim.scheduleMsg(v.sim.now+delay, callTyped, h, nil, 0, uint64(ch)<<32|uint64(v.seq[ch]))
}
func (v simView) stop()        { v.sim.Stop() }
func (v simView) pending() int { return v.count() }

const (
	oQuantum = 0.25 // every delay is a multiple, so ties are the rule
	oHorizon = 6.0
	oBudget  = 48 // schedules per part
)

type oChan struct {
	src, dst int
	look     float64
}

// program is a decoded event program: parts coupled by channels, each
// part running its own cursor over the shared read-only tape. Every
// event a part fires logs itself and runs the next 0–3 ops off the
// tape, so the same bytes drive every engine identically for as long
// as they agree on what fires when.
type program struct {
	parts int
	chans []oChan
	stops bool   // the stop opcode is live
	limit uint64 // event limit, 0 for none
	tape  []byte
}

func decodeProgram(data []byte) program {
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		i++
		return data[i-1]
	}
	p := program{parts: 1 + int(next())%4}
	for n := int(next()) % 5; n > 0; n-- {
		b := next()
		p.chans = append(p.chans, oChan{src: int(b) % p.parts, dst: int(b/4) % p.parts, look: oQuantum * float64(2+int(b/16)%3)})
	}
	switch next() % 8 {
	case 1:
		p.stops = true
	case 2:
		p.limit = 1 + uint64(next()%64)
	}
	p.tape = data[i:]
	return p
}

// exact reports whether the program needs the engines' exact promise:
// Stop, EventLimit and the pending count are compared only sequentially
// and at width 1. A wider engine stops and budgets per window, and a
// shard's handler sees only what its own shard and the barrier know.
func (p *program) exact() bool { return p.stops || p.limit > 0 }

type part struct {
	id      int
	p       *program
	all     []*part
	eng     engine
	out     []int // channels this part sends on
	cur     int
	made    int
	handles []handle
	timers  []timer
	everys  []func()
	trace   []string
	global  *[]string // the whole run's log on a single-threaded engine
}

func (pt *part) next() byte {
	if pt.cur >= len(pt.p.tape) {
		return 0
	}
	pt.cur++
	return pt.p.tape[pt.cur-1]
}

func (pt *part) log(format string, args ...any) {
	s := fmt.Sprintf("%g ", pt.eng.now()) + fmt.Sprintf(format, args...)
	pt.trace = append(pt.trace, s)
	if pt.global != nil {
		*pt.global = append(*pt.global, fmt.Sprintf("p%d %s", pt.id, s))
	}
}

// spend takes one schedule from the part's budget, which keeps every
// program finite.
func (pt *part) spend(kind byte) (string, bool) {
	if pt.made >= oBudget {
		return "", false
	}
	pt.made++
	return fmt.Sprintf("%c%d.%d", kind, pt.id, pt.made), true
}

func (pt *part) fire(label string) func() {
	return func() {
		pt.log("%s", label)
		pt.step(int(pt.next()) % 4)
	}
}

func (pt *part) step(ops int) {
	for ; ops > 0; ops-- {
		op, arg := pt.next(), pt.next()
		d, idx := oQuantum*float64(arg&7), int(arg>>3)
		// The pending opcode exists only in exact programs, so a wide
		// program's tape decodes to the same ops it always did.
		kinds := byte(10)
		if pt.p.exact() {
			kinds = 11
		}
		switch op % kinds {
		case 0:
			if l, ok := pt.spend('a'); ok {
				pt.handles = append(pt.handles, pt.eng.at(pt.eng.now()+d, pt.fire(l)))
			}
		case 1:
			if l, ok := pt.spend('y'); ok {
				pt.handles = append(pt.handles, pt.eng.typed(pt.eng.now()+d, pt.fire(l)))
			}
		case 2: // any handle: live, fired, cancelled, or its slot reused
			if len(pt.handles) > 0 {
				h := pt.handles[idx%len(pt.handles)]
				pt.log("cancel %d pending=%v", idx%len(pt.handles), h.Pending())
				h.Cancel()
			}
		case 3:
			if l, ok := pt.spend('t'); ok {
				pt.timers = append(pt.timers, pt.eng.afterFunc(d, pt.fire(l)))
			}
		case 4:
			if len(pt.timers) == 0 {
				break
			}
			tm := pt.timers[idx%len(pt.timers)]
			if arg&1 == 0 {
				pt.log("timer stop %v", tm.Stop())
			} else if _, ok := pt.spend('r'); ok {
				pt.log("timer reset pending=%v", tm.Pending())
				tm.Reset(d)
			}
		case 5:
			if l, ok := pt.spend('e'); ok {
				period := oQuantum * float64(1+idx%4)
				pt.everys = append(pt.everys, pt.eng.every(pt.eng.now()+d, period, pt.fire(l)))
			}
		case 6:
			if len(pt.everys) > 0 {
				pt.log("every stop %d", idx%len(pt.everys))
				pt.everys[idx%len(pt.everys)]()
			}
		case 7, 9: // a send at the lookahead, or one quantum above it
			if len(pt.out) == 0 {
				break
			}
			if l, ok := pt.spend('m'); ok {
				ci := pt.out[idx%len(pt.out)]
				c := pt.p.chans[ci]
				pt.eng.send(ci, c.look+oQuantum*float64(arg&1), pt.all[c.dst].fire(l))
			}
		case 8:
			if pt.p.stops {
				pt.log("stop")
				pt.eng.stop()
			}
		case 10: // from inside a handler, the queue without the event firing
			pt.log("pending %d", pt.eng.pending())
		}
	}
}

// driver is the run surface all three engines share.
type driver interface {
	RunUntil(end float64) error
	Now() float64
	Fired() uint64
	Pending() int
}

type outcome struct {
	traces [][]string
	global []string
	err    error
	fired  uint64
	queued int
	now    float64
}

// run executes the program on the oracle (width < 0), the sequential
// Simulator (width 0) or a ShardedSimulator of that width with part i
// on shard i mod width.
func (p program) run(width int) outcome {
	parts := make([]*part, p.parts)
	var global []string
	for i := range parts {
		parts[i] = &part{id: i, p: &p, all: parts, cur: 7 * i}
		if width <= 1 {
			parts[i].global = &global
		}
	}
	for ci, c := range p.chans {
		parts[c.src].out = append(parts[c.src].out, ci)
	}
	var drv driver
	switch {
	case width < 0:
		o := &oracle{limit: p.limit}
		for _, pt := range parts {
			pt.eng = oracleView{o: o, seq: make([]uint32, len(p.chans))}
		}
		drv = o
	case width == 0:
		sim := New()
		sim.EventLimit = p.limit
		v := simView{sim: sim, seq: make([]uint32, len(p.chans)), count: sim.Pending}
		for _, pt := range parts {
			pt.eng = v
		}
		drv = sim
	default:
		ss := NewSharded(1, width)
		ss.EventLimit = p.limit
		chans := make([]*Channel, len(p.chans))
		for i, c := range p.chans {
			chans[i] = ss.NewChannel(c.src%width, c.dst%width, c.look)
		}
		for i, pt := range parts {
			pt.eng = simView{sim: ss.Shard(i % width), chans: chans, count: ss.Pending}
		}
		drv = ss
	}
	for _, pt := range parts {
		pt.step(1 + int(pt.next())%6)
	}
	res := outcome{err: drv.RunUntil(oHorizon)}
	res.global = global // only after the run has appended to it
	for _, pt := range parts {
		res.traces = append(res.traces, pt.trace)
	}
	res.fired, res.queued, res.now = drv.Fired(), drv.Pending(), drv.Now()
	return res
}

// firstDiff locates the first differing line of two logs, "" when
// they are identical.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: oracle %q, engine %q", i, x, y)
		}
	}
	return ""
}

// checkProgram runs data on the oracle and on every engine the program
// qualifies for, and fails on the first disagreement.
func checkProgram(t *testing.T, data []byte) {
	t.Helper()
	p := decodeProgram(data)
	want := p.run(-1)
	widths := []int{0, 1, 2, 3, 4}
	if p.exact() {
		widths = widths[:2]
	}
	for _, w := range widths {
		name := "sequential engine"
		if w > 0 {
			name = fmt.Sprintf("sharded engine at width %d", w)
		}
		got := p.run(w)
		if !errors.Is(got.err, want.err) {
			t.Fatalf("%s returned %v, oracle %v (program %x)", name, got.err, want.err, data)
		}
		for i := range want.traces {
			if d := firstDiff(want.traces[i], got.traces[i]); d != "" {
				t.Fatalf("%s: part %d diverged at %s (program %x)", name, i, d, data)
			}
		}
		if d := firstDiff(want.global, got.global); w <= 1 && d != "" {
			t.Fatalf("%s: global order diverged at %s (program %x)", name, d, data)
		}
		if want.err == nil && (got.fired != want.fired || got.queued != want.queued || got.now != want.now) {
			t.Fatalf("%s: fired/pending/now %d/%d/%g, oracle %d/%d/%g (program %x)",
				name, got.fired, got.queued, got.now, want.fired, want.queued, want.now, data)
		}
	}
}

// oracleSeeds are hand-written programs: the shapes of
// TestPropertyOrdering (events at arbitrary offsets) and
// TestPropertyCancelSubset (some of them cancelled), then timers,
// periodics, channel ties, Stop and an event limit.
var oracleSeeds = [][]byte{
	// one part, no channels: six events at scattered quantised offsets.
	{0, 0, 0, 5, 0, 3, 0, 1, 1, 7, 0, 1, 1, 0, 0, 5},
	// the same events, then cancel handles 1, 3 and 4.
	{0, 0, 0, 5, 0, 3, 0, 1, 1, 7, 0, 1, 1, 0, 0, 5, 2, 8, 2, 24, 2, 32},
	// a timer stopped, one re-armed, a periodic stopped on its 2nd tick.
	{0, 0, 0, 4, 3, 4, 3, 2, 4, 0, 4, 9, 5, 10, 1, 6, 0, 0, 0, 2, 6, 0},
	// two parts, channels both ways at lookahead 0.5: sends at and just
	// above it, colliding with local events at the same instants.
	{1, 2, 4, 1, 0, 5, 7, 0, 0, 2, 7, 1, 1, 2, 2, 7, 0, 0, 4, 7, 9, 1, 1, 1, 0, 0, 6},
	// four parts in a ring of mixed lookaheads.
	{3, 4, 4, 25, 46, 3, 0, 5, 7, 0, 7, 8, 0, 2, 5, 1, 2, 7, 1, 1, 3, 0, 1, 7, 16, 2, 2, 1, 7, 0, 0, 3},
	// Stop mid-run, with a channel in flight.
	{1, 1, 4, 1, 4, 0, 2, 7, 0, 0, 4, 1, 8, 0, 0, 0},
	// an event limit of 9 on a self-feeding periodic.
	{0, 0, 2, 8, 1, 5, 8, 1, 0, 1, 1, 0},
	// the queue length logged from inside handlers, around schedules
	// at the current instant and later (mode 1 makes the program exact;
	// its tape never stops).
	{0, 0, 1, 2, 0, 1, 10, 0, 1, 0, 3, 10, 0, 0, 2, 1, 3, 10, 1, 0, 0, 0, 10, 0, 0, 10, 0},
}

// FuzzEngineMatchesOracle generates event programs — schedule, cancel,
// stale handles, timers, periodics, channel sends at and just above
// the lookahead, Stop, EventLimit and the queue length seen from inside
// a handler — and requires des.Simulator and
// des.ShardedSimulator at widths 1–4 to dispatch exactly what the
// naive oracle dispatches, in its order.
func FuzzEngineMatchesOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(checkProgram)
}

// TestEngineMatchesOracle is the tier-1 sweep of the same check: 200
// seeded programs of 16–255 bytes.
func TestEngineMatchesOracle(t *testing.T) {
	rng := NewRNG(27)
	for i := 0; i < 200; i++ {
		data := make([]byte, 16+rng.Intn(240))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkProgram(t, data)
	}
}
