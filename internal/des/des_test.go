package des

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if err := s.Run(); err != nil {
		t.Fatalf("Run on empty queue: %v", err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved with no events: %v", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []float64
	for _, tm := range []float64{3, 1, 2, 0.5, 2.5} {
		tm := tm
		s.At(tm, func() { got = append(got, tm) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(1.0, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New()
	s.At(4.25, func() {
		if s.Now() != 4.25 {
			t.Errorf("Now inside handler = %v, want 4.25", s.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 4.25 {
		t.Fatalf("final clock %v, want 4.25", s.Now())
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var secondAt float64
	s.At(2, func() {
		s.After(3, func() { secondAt = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if secondAt != 5 {
		t.Fatalf("chained After fired at %v, want 5", secondAt)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v did not panic", bad)
				}
			}()
			s.At(bad, func() {})
		}()
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	s.Cancel(Event{}) // zero handle must not panic
	s.Cancel(e)       // double cancel must not panic
}

func TestCancelledEventsNotPending(t *testing.T) {
	// Satellite of the pooling refactor: Pending() must report only
	// live events — a cancelled event leaves the queue immediately.
	s := New()
	e1 := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	e1.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1 (cancelled events must not be counted)", s.Pending())
	}
}

func TestStaleHandleIsInert(t *testing.T) {
	// Pool-reuse safety: after a slot is recycled, a handle from the
	// previous occupancy must neither observe nor cancel the new event.
	s := New()
	stale := s.At(1, func() { t.Error("cancelled event fired") })
	stale.Cancel()
	fired := false
	fresh := s.At(1, func() { fired = true }) // reuses the freed slot
	if stale.Pending() {
		t.Fatal("stale handle reports pending")
	}
	stale.Cancel() // must NOT cancel the new occupant
	if !fresh.Pending() {
		t.Fatal("stale Cancel hit a recycled slot")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("fresh event did not fire")
	}
	if stale.Time() != 0 || stale.Name() != "" {
		t.Fatal("stale handle leaks recycled slot state")
	}
}

func TestAllocsPerEvent(t *testing.T) {
	// Steady-state scheduling and firing must not allocate: records are
	// recycled through the slab free list. The handler is pre-bound so
	// only the engine's own cost is measured.
	s := New()
	n := 0
	h := func() { n++ }
	for i := 0; i < 64; i++ { // warm the slab
		s.At(s.Now(), h)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		s.At(s.Now(), h)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("scheduled-and-fired event allocates %.2f times, want 0", avg)
	}
}

func TestAllocsPerTypedEvent(t *testing.T) {
	s := New()
	var fired int
	counter := &fired
	for i := 0; i < 64; i++ {
		s.ScheduleTyped(s.Now(), typedBump, counter, nil, 7)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		s.ScheduleTyped(s.Now(), typedBump, counter, nil, 7)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("typed event allocates %.2f times, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("typed handler never ran")
	}
}

func typedBump(a, b any, kind uint8) {
	if kind != 7 {
		panic("wrong kind")
	}
	*(a.(*int))++
}

func TestTypedEventDispatch(t *testing.T) {
	s := New()
	n := 0
	e := s.ScheduleTyped(2.5, typedBump, &n, nil, 7)
	if !e.Pending() || e.Time() != 2.5 {
		t.Fatalf("typed event not pending at its time: %v %v", e.Pending(), e.Time())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 || s.Now() != 2.5 {
		t.Fatalf("typed dispatch n=%d now=%v", n, s.Now())
	}
	e2 := s.ScheduleTyped(3, typedBump, &n, nil, 7)
	e2.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("cancelled typed event fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4} {
		tm := tm
		s.At(tm, func() { fired = append(fired, tm) })
	}
	if err := s.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock %v after RunUntil(2.5)", s.Now())
	}
	// Resume: remaining events still fire.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("after resume fired %v, want 4 events", fired)
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	s := New()
	s.At(5, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 5 {
		t.Fatalf("RunUntil rewound the clock to %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	if s.Pending() == 0 {
		t.Fatal("Stop should leave events pending")
	}
}

func TestEvery(t *testing.T) {
	s := New()
	var times []float64
	stop := s.Every(1, 2, func() {
		times = append(times, s.Now())
		if len(times) == 4 {
			s.Stop()
		}
	})
	defer stop()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7}
	if len(times) != len(want) {
		t.Fatalf("periodic fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("periodic fired at %v, want %v", times, want)
		}
	}
}

func TestEveryStop(t *testing.T) {
	s := New()
	n := 0
	var stop func()
	stop = s.Every(0, 1, func() {
		n++
		if n == 2 {
			stop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("periodic fired %d times after stop, want 2", n)
	}
}

func TestEventLimit(t *testing.T) {
	s := New()
	s.EventLimit = 10
	var tick func()
	tick = func() { s.After(1, tick) }
	s.At(0, tick)
	if err := s.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}

	// The event over the budget is dropped and the queue holds exactly
	// the rest, for Pending and DrainPending alike.
	s = New()
	s.EventLimit = 3
	fired := 0
	for i := 0; i < 8; i++ {
		s.At(float64(i), func() { fired++ })
	}
	if err := s.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if fired != 3 || s.Pending() != 4 || s.vacant {
		t.Fatalf("fired %d, pending %d, vacant root %v; want 3, 4 and none", fired, s.Pending(), s.vacant)
	}
	var times []float64
	s.DrainPending(func(ev DrainedEvent) { times = append(times, ev.Time) })
	if fmt.Sprint(times) != "[4 5 6 7]" || s.Pending() != 0 {
		t.Fatalf("drained %v, pending %d", times, s.Pending())
	}
}

func TestReset(t *testing.T) {
	s := New()
	s.At(1, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Fired() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestResetSemantics(t *testing.T) {
	s := New()
	s.EventLimit = 5
	var tick func()
	tick = func() { s.After(1, tick) }
	s.At(0, tick)
	if err := s.Run(); err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	e := s.At(s.Now()+1, func() {})
	s.Reset()
	// Handles from before Reset are invalidated, pending events gone.
	if e.Pending() {
		t.Fatal("pre-Reset handle still pending")
	}
	e.Cancel() // must be a no-op, not corrupt the fresh queue
	// EventLimit is configuration and survives Reset; the fired budget
	// restarts, so the same limit applies to the new run.
	if s.EventLimit != 5 {
		t.Fatalf("Reset cleared EventLimit: %d", s.EventLimit)
	}
	n := 0
	for i := 0; i < 5; i++ {
		s.At(float64(i), func() { n++ })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run within restarted budget: %v", err)
	}
	if n != 5 {
		t.Fatalf("fired %d, want 5", n)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	s.At(1, nil)
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the final clock equals the max offset.
func TestPropertyOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fired []float64
		maxT := 0.0
		for _, v := range raw {
			tm := float64(v) / 100
			if tm > maxT {
				maxT = tm
			}
			s.At(tm, func() { fired = append(fired, tm) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the others.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(times []uint8, mask []bool) bool {
		s := New()
		fired := map[int]bool{}
		events := make([]Event, len(times))
		for i, v := range times {
			i := i
			events[i] = s.At(float64(v), func() { fired[i] = true })
		}
		cancelled := map[int]bool{}
		for i := range events {
			if i < len(mask) && mask[i] {
				s.Cancel(events[i])
				cancelled[i] = true
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := range events {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(7)
	c1 := g.Split(1)
	g2 := NewRNG(7)
	c2 := g2.Split(2)
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > 5 {
		t.Fatalf("split streams look correlated: %d/100 equal draws", equal)
	}
}

func TestSample(t *testing.T) {
	g := NewRNG(1)
	xs := []int{10, 20, 30, 40, 50}
	got := Sample(g, xs, 3)
	if len(got) != 3 {
		t.Fatalf("Sample returned %d elements, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("Sample returned duplicate %d", v)
		}
		seen[v] = true
		found := false
		for _, x := range xs {
			if x == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("Sample returned %d not in population", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized Sample did not panic")
		}
	}()
	Sample(g, xs, 6)
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 3)
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform(2,3) = %v out of range", v)
		}
	}
}

func TestAfterFuncTimer(t *testing.T) {
	sim := New()
	fired := 0
	tm := sim.AfterFunc(1, func() { fired++ })
	if !tm.Pending() {
		t.Fatal("freshly armed timer not pending")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	// Reset after firing re-arms with the same handler.
	tm.Reset(2)
	if !tm.Pending() {
		t.Fatal("Reset did not re-arm a fired timer")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 || sim.Now() != 3 {
		t.Fatalf("fired=%d now=%v, want 2 at t=3", fired, sim.Now())
	}
}

func TestTimerStop(t *testing.T) {
	sim := New()
	fired := 0
	tm := sim.AfterFunc(1, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	// Stop after firing is a safe no-op returning false.
	tm.Reset(1)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported true")
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

func TestTimerResetWhilePending(t *testing.T) {
	sim := New()
	var at float64
	tm := sim.AfterFunc(1, func() { at = sim.Now() })
	sim.At(0.5, func() { tm.Reset(3) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3.5 {
		t.Fatalf("reset timer fired at %v, want 3.5", at)
	}
}

func TestCancelFiredEventNoOp(t *testing.T) {
	// Regression: cancelling an event that already fired must be a safe
	// no-op — it must not panic, corrupt the queue, or affect later
	// events sharing the heap.
	sim := New()
	order := []int{}
	e1 := sim.At(1, func() { order = append(order, 1) })
	sim.At(2, func() { order = append(order, 2) })
	if err := sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	sim.Cancel(e1) // already fired
	sim.Cancel(e1) // twice, still a no-op
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if e1.Pending() {
		t.Fatal("cancelled fired event reported pending")
	}
}
