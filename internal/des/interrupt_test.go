package des

import (
	"errors"
	"fmt"
	"testing"
)

func TestInterruptStopsRun(t *testing.T) {
	sim := New()
	stop := errors.New("cancelled")
	fired := 0
	var schedule func()
	schedule = func() {
		fired++
		sim.After(1, schedule)
	}
	sim.After(1, schedule)
	polls := 0
	sim.SetInterrupt(8, func() error {
		polls++
		if fired >= 20 {
			return stop
		}
		return nil
	})
	err := sim.Run()
	if !errors.Is(err, stop) {
		t.Fatalf("Run returned %v, want the interrupt error", err)
	}
	if polls == 0 {
		t.Fatal("interrupt never polled")
	}
	// Polled once per batch of 8, not once per event.
	if polls > fired/8+2 {
		t.Fatalf("polled %d times over %d events with batch 8", polls, fired)
	}
	// The self-rescheduling chain means exactly one event is pending:
	// an interrupted run keeps its queue intact.
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d after interrupt, want 1", sim.Pending())
	}
}

// A failed poll is not used up: resuming with the same failing check
// installed returns at once, before another event fires.
func TestInterruptResumeRepolls(t *testing.T) {
	sim := New()
	stop := errors.New("still cancelled")
	var tick func()
	tick = func() { sim.After(1, tick) }
	sim.After(1, tick)
	polls := 0
	sim.SetInterrupt(8, func() error {
		polls++
		if sim.Fired() >= 20 {
			return stop
		}
		return nil
	})
	if err := sim.Run(); !errors.Is(err, stop) {
		t.Fatalf("Run returned %v, want the interrupt error", err)
	}
	fired, before := sim.Fired(), polls
	for i := 0; i < 3; i++ {
		if err := sim.Run(); !errors.Is(err, stop) {
			t.Fatalf("resumed Run returned %v, want the interrupt error", err)
		}
	}
	if sim.Fired() != fired {
		t.Fatalf("resumed runs fired %d events, want 0", sim.Fired()-fired)
	}
	if polls != before+3 {
		t.Fatalf("resumed runs polled %d times, want 3", polls-before)
	}
}

func TestInterruptDoesNotPerturbRun(t *testing.T) {
	trace := func(check func() error) string {
		sim := New()
		var log string
		for i := 0; i < 50; i++ {
			i := i
			sim.At(float64(i%7)+1, func() { log += fmt.Sprintf("%d@%.0f ", i, sim.Now()) })
		}
		if check != nil {
			sim.SetInterrupt(4, check)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	plain := trace(nil)
	checked := trace(func() error { return nil })
	if plain != checked {
		t.Fatalf("interrupt checkpoint changed the event stream:\n%s\n%s", plain, checked)
	}
}

func TestInterruptAlreadyCancelled(t *testing.T) {
	sim := New()
	stop := errors.New("cancelled before start")
	fired := false
	sim.At(1, func() { fired = true })
	sim.SetInterrupt(0, func() error { return stop })
	if err := sim.Run(); !errors.Is(err, stop) {
		t.Fatalf("Run returned %v, want immediate interrupt", err)
	}
	if fired {
		t.Fatal("event fired despite pre-cancelled interrupt")
	}
	if sim.Pending() != 1 {
		t.Fatalf("pending = %d, want the untouched event", sim.Pending())
	}
	// Removing the checkpoint lets the run resume and finish.
	sim.SetInterrupt(0, nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire after interrupt removed")
	}
}

func TestDrainPending(t *testing.T) {
	sim := New()
	type op struct{ a, b int }
	x, y := &op{1, 2}, &op{3, 4}
	sim.At(5, func() {})
	sim.ScheduleTyped(2, func(a, b any, kind uint8) { t.Fatal("typed event fired during drain") }, x, y, 7)
	e := sim.AtNamed(9, "late", func() {})
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	var drained []DrainedEvent
	sim.DrainPending(func(ev DrainedEvent) { drained = append(drained, ev) })
	if sim.Pending() != 0 {
		t.Fatalf("pending = %d after drain", sim.Pending())
	}
	if len(drained) != 3 {
		t.Fatalf("drained %d events, want 3", len(drained))
	}
	// Dispatch order and field fidelity.
	if drained[0].Time != 2 || drained[0].Fn == nil || drained[0].A != any(x) || drained[0].B != any(y) || drained[0].Kind != 7 {
		t.Fatalf("typed drain record wrong: %+v", drained[0])
	}
	if drained[1].Time != 5 || drained[1].Handler == nil {
		t.Fatalf("closure drain record wrong: %+v", drained[1])
	}
	if drained[2].Time != 9 || drained[2].Name != "late" {
		t.Fatalf("named drain record wrong: %+v", drained[2])
	}
	// Clock and fired counter survive; stale handles are inert.
	if sim.Now() != 1 {
		t.Fatalf("drain moved the clock to %v", sim.Now())
	}
	if e.Pending() {
		t.Fatal("drained event still pending via handle")
	}
	e.Cancel() // no-op, must not panic
	// The simulator remains usable.
	ran := false
	sim.At(10, func() { ran = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("post-drain event did not fire")
	}
}

func TestDrainPendingNilVisitor(t *testing.T) {
	sim := New()
	sim.At(1, func() {})
	sim.At(2, func() {})
	sim.DrainPending(nil)
	if sim.Pending() != 0 {
		t.Fatalf("pending = %d after nil-visitor drain", sim.Pending())
	}
}
