package des

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestHeapKeyOrder schedules times whose bit patterns are the edge
// cases of the inline key — negative zero, subnormals, the largest
// finite float — and requires dispatch in numeric order, ties in
// scheduling order.
func TestHeapKeyOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	times := []float64{
		1e300, 1, math.SmallestNonzeroFloat64, negZero, math.MaxFloat64,
		2.2250738585072014e-308, // smallest normal
		2.225073858507201e-308,  // largest subnormal
		0, 1e-320, 1, 0.5, negZero,
	}
	want := []int{3, 7, 11, 2, 8, 6, 5, 10, 1, 9, 0, 4}
	s := New()
	var got []int
	for i, tm := range times {
		s.At(tm, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if timeKey(negZero) != timeKey(0) {
		t.Fatalf("timeKey(-0) = %#x, timeKey(+0) = %#x", timeKey(negZero), timeKey(0))
	}
}

// TestHeapKeyClasses puts locals and channel deliveries on one instant:
// every local (FIFO) fires before every delivery, and deliveries order
// by channel id then channel sequence, up to the largest id and
// sequence a key can hold.
func TestHeapKeyClasses(t *testing.T) {
	s := New()
	var got []string
	deliver := func(a, _ any, _ uint8) { got = append(got, a.(string)) }
	maxID := uint64(channelID(1<<31 - 1))
	s.scheduleMsg(2, deliver, "m:max/max", nil, 0, maxID<<32|math.MaxUint32)
	s.scheduleMsg(2, deliver, "m:1/2", nil, 0, 1<<32|2)
	s.At(2, func() { got = append(got, "local:a") })
	s.scheduleMsg(2, deliver, "m:0/7", nil, 0, 7)
	s.scheduleMsg(2, deliver, "m:1/1", nil, 0, 1<<32|1)
	s.At(2, func() { got = append(got, "local:b") })
	s.At(1, func() { got = append(got, "early") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "early local:a local:b m:0/7 m:1/1 m:1/2 m:max/max"
	if strings.Join(got, " ") != want {
		t.Fatalf("order %q, want %q", strings.Join(got, " "), want)
	}
}

// TestChannelIDBound: a delivery key holds channel ids below 2^31,
// because bit 63 of the heap word is the class.
func TestChannelIDBound(t *testing.T) {
	if id := channelID(1<<31 - 1); id != 1<<31-1 {
		t.Fatalf("channelID(2^31-1) = %d", id)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("channelID(2^31) did not panic")
		}
	}()
	channelID(1 << 31)
}

// TestDeferredPop: each handler sees the queue without itself, whether
// it schedules nothing, one event, or three (one at the current
// instant, which must still fire after every earlier-scheduled event
// of that instant).
func TestDeferredPop(t *testing.T) {
	s := New()
	var log []string
	note := func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%g/%d", name, s.Now(), s.Pending())) }
	}
	s.At(1, note("none"))
	s.At(2, func() {
		note("one")()
		s.At(4, note("one.a"))
	})
	s.At(3, func() {
		note("three")()
		s.At(5, note("three.a"))
		s.At(3, note("three.now"))
		s.At(3.5, note("three.b"))
	})
	s.At(3, note("tie"))
	s.At(6, note("last"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "none@1/4 one@2/3 three@3/3 tie@3/5 three.now@3/4 three.b@3.5/3 one.a@4/2 three.a@5/1 last@6/0"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if s.Pending() != 0 || s.Fired() != 9 {
		t.Fatalf("pending %d fired %d after the run", s.Pending(), s.Fired())
	}
}

// TestCancelWhileRootVacant: a handler cancels siblings before it
// schedules anything — from the tail of the heap, its middle, and the
// root's own children — and the rest still fire in order.
func TestCancelWhileRootVacant(t *testing.T) {
	s := New()
	var got []int
	evs := make([]Event, 16)
	for i := range evs {
		evs[i] = s.At(float64(i+1), func() { got = append(got, i) })
	}
	s.At(0.5, func() {
		for _, i := range []int{15, 7, 0, 1, 2, 11} {
			evs[i].Cancel()
		}
		if s.Pending() != 10 {
			t.Errorf("pending %d after six cancels, want 10", s.Pending())
		}
		s.At(0.75, func() { got = append(got, -1) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[-1 3 4 5 6 8 9 10 12 13 14]"; fmt.Sprint(got) != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

// TestPanickingHandlerLeavesQueueUsable: a handler that panics before
// scheduling leaves the root vacant. DrainPending then visits only
// live events, frees each slot once, and the simulator runs on.
func TestPanickingHandlerLeavesQueueUsable(t *testing.T) {
	s := New()
	s.At(1, func() { panic("boom") })
	for i := 2; i <= 5; i++ {
		s.At(float64(i), func() {})
	}
	func() {
		defer func() { _ = recover() }()
		_ = s.Run()
	}()
	if s.Pending() != 4 {
		t.Fatalf("pending %d after the panic, want 4", s.Pending())
	}

	n := 0
	s.DrainPending(func(ev DrainedEvent) {
		if ev.Handler == nil {
			t.Errorf("drained a released record at %v", ev.Time)
		}
		n++
	})
	if n != 4 || s.Pending() != 0 {
		t.Fatalf("drained %d, pending %d; want 4 and 0", n, s.Pending())
	}

	var got []int
	for i := 0; i < 6; i++ {
		s.At(float64(7-i), func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[5 4 3 2 1 0]" {
		t.Fatalf("after the drain fired %v, want [5 4 3 2 1 0]", got)
	}
}
