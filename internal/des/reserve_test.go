package des

import (
	"fmt"
	"strings"
	"testing"
)

// resCell is one part of the reservation workload: it ticks, sends to
// the next cell over a Channel, and takes reservations. In reference
// mode every reservation is an ordinary event scheduled where Reserve
// is called; otherwise the cell reserves the key and schedules at it
// later, from a trigger event, or never. Both modes draw the same
// random numbers and consume the same seqs, so their traces must be
// equal at every shard width.
type resCell struct {
	sim   *Simulator
	rng   *RNG
	out   *Channel
	next  *resCell
	ref   bool
	slots []*resSlot
	ids   int
	trace []string
}

// resSlot is one reservation: fire says whether an event goes there.
type resSlot struct {
	cell  *resCell
	r     Reservation
	id    int
	depth int
	fire  bool
	fired bool // reference mode: its event has fired
}

// resQ is the workload's time quantum, a power of two so every sum of
// quanta is exact and ties are frequent.
const resQ = 1.0 / 128

func (c *resCell) log(format string, args ...any) {
	c.trace = append(c.trace, fmt.Sprintf("%g/", c.sim.Now())+fmt.Sprintf(format, args...))
}

// step is one handler of the workload: it logs, reports whether each
// outstanding reservation has been passed, and spawns more work.
func (c *resCell) step(tag string, depth int) {
	c.log("%s%d", tag, depth)
	keep := c.slots[:0]
	for _, sl := range c.slots {
		passed := sl.fired
		if !c.ref {
			passed = c.sim.Passed(sl.r)
		}
		c.log("p%d=%t", sl.id, passed)
		if !passed {
			keep = append(keep, sl)
		}
	}
	c.slots = keep
	if depth >= 5 {
		return
	}
	d := depth + 1
	c.sim.After(resQ*float64(1+c.rng.Intn(3)), func() { c.step("t", d) })
	// A reservation 0–3 quanta ahead; two in three get their event.
	sl := &resSlot{cell: c, id: c.ids, depth: d, fire: c.rng.Intn(3) > 0}
	c.ids++
	ahead := c.rng.Intn(4)
	at := c.sim.Now() + resQ*float64(ahead)
	if c.ref {
		c.sim.ScheduleTyped(at, resFire, sl, nil, 0)
	} else {
		sl.r = c.sim.Reserve(at)
	}
	c.slots = append(c.slots, sl)
	if sl.fire {
		if ahead == 0 {
			if !c.ref {
				c.sim.ScheduleReserved(sl.r, resFire, sl, nil, 0)
			}
		} else {
			// The trigger fires strictly before the reserved time.
			c.sim.After(resQ*float64(c.rng.Intn(ahead)), func() {
				if !c.ref {
					c.sim.ScheduleReserved(sl.r, resFire, sl, nil, 0)
				}
			})
		}
	}
	if c.rng.Intn(2) == 0 {
		c.out.Send(2*resQ*float64(1+c.rng.Intn(2)), resDeliver, c.next, d, 0)
	}
}

// resFire is the event at a reservation. A reference event whose
// reservation gets no event in the other mode only marks it fired. An
// event's own handler does not yet see its reservation passed.
func resFire(a, _ any, _ uint8) {
	sl := a.(*resSlot)
	if sl.fire {
		sl.cell.step(fmt.Sprintf("r%d.", sl.id), sl.depth)
	}
	sl.fired = true
}

func resDeliver(a, b any, _ uint8) {
	a.(*resCell).step("m", b.(int))
}

// runReservations runs the workload on cells cells placed round-robin
// on the given number of shards and returns the per-cell traces.
func runReservations(t *testing.T, seed int64, cells, shards int, ref bool) string {
	t.Helper()
	ss := NewSharded(seed, shards)
	ring := make([]*resCell, cells)
	for i := range ring {
		ring[i] = &resCell{sim: ss.Shard(i % shards), rng: NewRNG(DeriveSeed(seed, int64(i))), ref: ref}
	}
	for i, c := range ring {
		c.out = ss.NewChannel(i%shards, (i+1)%cells%shards, 2*resQ)
		c.next = ring[(i+1)%cells]
	}
	for i, c := range ring {
		c := c
		c.sim.At(resQ*float64(i), func() { c.step("s", 0) })
	}
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, c := range ring {
		fmt.Fprintf(&sb, "cell%d:%s\n", i, strings.Join(c.trace, ","))
	}
	return sb.String()
}

// TestReservationMatchesScheduledEvent: an event scheduled at a
// reservation fires exactly where an event scheduled at the Reserve
// call would have, and Passed turns true exactly when that event would
// have fired — across ties at one time, cross-shard deliveries and
// shard widths 1–4.
func TestReservationMatchesScheduledEvent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		want := runReservations(t, seed, 4, 1, true)
		if !strings.Contains(want, "/r") || !strings.Contains(want, "=true") || !strings.Contains(want, "/m") {
			t.Fatalf("seed %d: workload fires no reserved event, passes no reservation or delivers nothing:\n%s", seed, want)
		}
		for shards := 1; shards <= 4; shards++ {
			if got := runReservations(t, seed, 4, shards, false); got != want {
				t.Fatalf("seed %d, %d shards: reserved run diverges from the scheduled one\n--- scheduled\n%s--- reserved\n%s", seed, shards, want, got)
			}
		}
	}
}

// TestReservationPassedAtItsTime: at the reserved time, Passed is false
// for events of a lower key and true for those of a higher key, and a
// RunUntil that ends at the time passes it.
func TestReservationPassedAtItsTime(t *testing.T) {
	sim := New()
	var got []bool
	var r Reservation
	sim.At(1, func() { got = append(got, sim.Passed(r)) })
	r = sim.Reserve(1)
	sim.At(1, func() { got = append(got, sim.Passed(r)) })
	if sim.Passed(r) || !sim.Passed(Reservation{}) {
		t.Fatal("a fresh reservation reads as passed, or the zero one does not")
	}
	if err := sim.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if sim.Passed(r) {
		t.Fatal("passed at 0.5")
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("Passed from the events around it = %v, want [false true]", got)
	}
	// A RunUntil ending at the reservation's time, with no event after
	// it there, passes it too.
	r2 := sim.Reserve(2)
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if !sim.Passed(r2) {
		t.Fatal("RunUntil(2) did not pass a reservation at 2")
	}
	// One taken after that run, at the clock's time, is still ahead.
	if r3 := sim.Reserve(2); sim.Passed(r3) {
		t.Fatal("a reservation taken at the clock's time reads as passed")
	}
}

// TestReservationSurvivesDrain: DrainPending leaves a reservation
// usable at its key.
func TestReservationSurvivesDrain(t *testing.T) {
	sim := New()
	var order []string
	note := func(s string) TypedFunc { return func(any, any, uint8) { order = append(order, s) } }
	r := sim.Reserve(1)
	sim.ScheduleTyped(1, note("drained"), nil, nil, 0)
	sim.DrainPending(nil)
	sim.ScheduleTyped(1, note("after"), nil, nil, 0)
	if sim.Passed(r) {
		t.Fatal("drain passed the reservation")
	}
	sim.ScheduleReserved(r, note("reserved"), nil, nil, 0)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "reserved,after" {
		t.Fatalf("fired %v, want [reserved after]", order)
	}
}
