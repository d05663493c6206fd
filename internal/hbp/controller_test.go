package hbp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/des"
)

// fakePlane logs every call the controller makes, with the simulation
// time. Epoch e's window opens at 10·e seconds; the victim is a
// honeypot in every epoch of [first, end).
type fakePlane struct {
	sim        *des.Simulator
	log        []string
	refuse     map[int]bool // intermediates with no one to address
	noRoot     bool         // the tree root refuses too
	captures   int
	first, end int
	onDirect   func() // extra behaviour of an accepted direct request
}

func newFakePlane(sim *des.Simulator) *fakePlane {
	return &fakePlane{sim: sim, refuse: map[int]bool{}, end: 1000}
}

func (p *fakePlane) note(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf("%.2f ", p.sim.Now())+fmt.Sprintf(format, args...))
}

func (p *fakePlane) Request(epoch int, reseed bool) bool {
	if p.noRoot {
		return false
	}
	if reseed {
		p.note("reseed e%d", epoch)
	} else {
		p.note("request e%d", epoch)
	}
	return true
}

func (p *fakePlane) Cancel(epoch int) bool {
	if p.noRoot {
		return false
	}
	p.note("cancel e%d", epoch)
	return true
}

func (p *fakePlane) DirectRequest(to, epoch int) bool {
	if p.refuse[to] {
		return false
	}
	p.note("direct-request %d e%d", to, epoch)
	if p.onDirect != nil {
		p.onDirect()
	}
	return true
}

func (p *fakePlane) DirectCancel(to, epoch int) bool {
	if p.refuse[to] {
		return false
	}
	p.note("direct-cancel %d e%d", to, epoch)
	return true
}

func (p *fakePlane) NextWindow(from int) (int, float64, bool) {
	from = max(from, p.first)
	if from >= p.end {
		return 0, 0, false
	}
	return from, 10 * float64(from), true
}

func (p *fakePlane) CaptureCount() int { return p.captures }

// newTestController wires a controller to a fake plane on a bare
// simulator: progressive, ρ = 3, τ = 0.05.
func newTestController(cfg ControllerConfig) (*des.Simulator, *fakePlane, *Controller[int]) {
	sim := des.New()
	p := newFakePlane(sim)
	cfg.Progressive = true
	cfg.Rho = 3
	cfg.Tau = 0.05
	cfg.EventPrefix = "test"
	if cfg.ActivationThreshold == 0 {
		cfg.ActivationThreshold = 1
	}
	c := NewController[int](sim, p, cfg)
	return sim, p, &c
}

func wantLog(t *testing.T, p *fakePlane, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(p.log, want) {
		t.Fatalf("plane calls:\n got %q\nwant %q", p.log, want)
	}
}

// A report schedules the direct request t_A + τ before the next
// window; a second report before it fires schedules nothing more.
func TestControllerArmTime(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{})
	sim.At(1, func() { c.Report(7, 0, 0.8) })  // t_A = 0.2
	sim.At(2, func() { c.Report(7, 0, 1.95) }) // same epoch again; arm already pending
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, "9.75 direct-request 7 e1")
	if c.ReportsReceived != 2 || c.DirectRequestsSent != 1 || c.Intermediates() != 1 {
		t.Fatalf("reports=%d directs=%d list=%d", c.ReportsReceived, c.DirectRequestsSent, c.Intermediates())
	}
}

// When t_A + τ before the window is already past, the request goes out
// now; an exhausted schedule arms nothing.
func TestControllerArmClampedToNow(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{})
	sim.At(9.9, func() { c.Report(7, 0, 9.7) }) // 10 - 0.2 - 0.05 < 9.9
	sim.At(12, func() {
		p.end = 2
		c.Report(8, 1, 11.9)
	})
	if err := sim.RunUntil(30); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, "9.90 direct-request 7 e1")
	if c.Intermediates() != 2 {
		t.Fatalf("list = %d, want both reporters kept", c.Intermediates())
	}
}

// Rule 1: an entry armed for an earlier epoch that did not report for
// it is dropped when the next window opens, with its pending timer.
func TestControllerRule1(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{})
	sim.At(1, func() { c.Report(7, 0, 0.8) }) // armed for epoch 1 at 9.75
	sim.At(10, func() { c.OpenWindow(1) })    // armed for this epoch: stays
	sim.At(11, func() {
		if c.Intermediates() != 1 {
			t.Errorf("entry armed for the open epoch was swept")
		}
	})
	// A duplicate of the epoch-0 report plans another arm (epoch 3 is
	// the next honeypot epoch by now) without counting as a report for
	// epoch 1.
	sim.At(25, func() {
		p.first = 3
		c.Report(7, 0, 24.8)
	})
	sim.At(26, func() { c.OpenWindow(2) })
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, "9.75 direct-request 7 e1") // the 29.75 timer never fires
	if c.Rule1Removals != 1 || c.Intermediates() != 0 {
		t.Fatalf("rule-1 removals=%d list=%d", c.Rule1Removals, c.Intermediates())
	}
}

// Rule 2: ρ epochs with a report and the entry goes, pending timer
// included.
func TestControllerRule2(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{})
	sim.At(1, func() { c.Report(7, 0, 0.8) })
	sim.At(11, func() { c.Report(7, 1, 10.8) }) // arm for epoch 2 pending at 19.75
	sim.At(12, func() { c.Report(7, 2, 11.8) }) // third epoch: ρ reached
	if err := sim.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, "9.75 direct-request 7 e1")
	if c.RhoRemovals != 1 || c.Intermediates() != 0 {
		t.Fatalf("rho removals=%d list=%d", c.RhoRemovals, c.Intermediates())
	}
}

// armThree gets intermediates 9, 3 and 5 armed for epoch 1; their arm
// timers fire in report order.
func armThree(sim *des.Simulator, c *Controller[int]) []string {
	for _, id := range []int{9, 3, 5} {
		id := id
		sim.At(1, func() { c.Report(id, 0, 0.8) })
	}
	return []string{"9.75 direct-request 9 e1", "9.75 direct-request 3 e1", "9.75 direct-request 5 e1"}
}

// The activation threshold requests the tree once; close cancels at
// the root only if it was requested, then the armed intermediates in
// ascending order; a send the plane refuses is not counted.
func TestControllerWindow(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{ActivationThreshold: 2})
	sim.At(0.1, func() { c.OpenWindow(0) })
	sim.At(0.2, func() { c.HoneypotPacket() }) // below threshold
	sim.At(0.9, func() { c.CloseWindow(0) })   // never requested: no cancel
	want := armThree(sim, c)
	sim.At(10, func() { c.OpenWindow(1) })
	for _, at := range []float64{10.1, 10.2, 10.3} {
		sim.At(at, func() { c.HoneypotPacket() })
	}
	sim.At(19, func() {
		p.refuse[5] = true
		c.CloseWindow(1)
	})
	sim.At(19.5, func() { c.HoneypotPacket() }) // window closed: ignored
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, append(want,
		"10.20 request e1",
		"19.00 cancel e1", "19.00 direct-cancel 3 e1", "19.00 direct-cancel 9 e1")...)
	if c.RequestsSent != 1 || c.CancelsSent != 3 || c.DirectRequestsSent != 3 {
		t.Fatalf("requests=%d cancels=%d directs=%d", c.RequestsSent, c.CancelsSent, c.DirectRequestsSent)
	}
}

// A root that cannot be addressed leaves the tree unrequested: nothing
// is counted, every packet retries, close has nothing to cancel. A
// refused direct request leaves the entry unarmed.
func TestControllerRefusedSendsNotCounted(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{})
	p.noRoot = true
	p.refuse[7] = true
	sim.At(1, func() { c.Report(7, 0, 0.8) })
	sim.At(10, func() { c.OpenWindow(1) })
	sim.At(10.1, func() { c.HoneypotPacket() })
	sim.At(10.2, func() {
		p.noRoot = false
		c.HoneypotPacket()
	})
	sim.At(19, func() { c.CloseWindow(1) })
	sim.At(20, func() { c.OpenWindow(2) }) // never armed: rule 1 does not apply
	if err := sim.RunUntil(21); err != nil {
		t.Fatal(err)
	}
	wantLog(t, p, "10.20 request e1", "19.00 cancel e1")
	if c.RequestsSent != 1 || c.CancelsSent != 1 || c.DirectRequestsSent != 0 || c.Intermediates() != 1 {
		t.Fatalf("requests=%d cancels=%d directs=%d list=%d",
			c.RequestsSent, c.CancelsSent, c.DirectRequestsSent, c.Intermediates())
	}
}

// A stalled window is re-seeded root first, then the armed
// intermediates in ascending order, and only then is the next tick
// scheduled: an event a re-seed send puts at the next tick's time
// still runs before that tick.
func TestControllerWatchdogReseed(t *testing.T) {
	sim, p, c := newTestController(ControllerConfig{Watchdog: true, WatchdogInterval: 1})
	want := append(armThree(sim, c), "10.10 request e1")
	sim.At(10, func() { c.OpenWindow(1) })
	sim.At(10.1, func() { c.HoneypotPacket() })
	p.onDirect = func() {
		if sim.Now() == 11 {
			sim.After(1, func() { p.note("delivered") })
		}
	}
	sim.At(11.5, func() { c.HoneypotPacket() }) // still drawing attack, still no capture
	sim.At(12.5, func() {                       // progress: the tick at 13 must stay quiet
		p.captures++
		c.HoneypotPacket()
	})
	sim.At(13.5, func() { c.CloseWindow(1) })
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	reseed := []string{"reseed e1", "direct-request 3 e1", "direct-request 5 e1", "direct-request 9 e1"}
	for _, call := range reseed {
		want = append(want, "11.00 "+call)
	}
	want = append(want, "12.00 delivered", "12.00 delivered", "12.00 delivered")
	for _, call := range reseed {
		want = append(want, "12.00 "+call)
	}
	want = append(want, "13.50 cancel e1", "13.50 direct-cancel 3 e1", "13.50 direct-cancel 5 e1", "13.50 direct-cancel 9 e1")
	wantLog(t, p, want...)
	if c.WatchdogReseeds != 2 || c.RequestsSent != 3 || c.DirectRequestsSent != 9 {
		t.Fatalf("reseeds=%d requests=%d directs=%d", c.WatchdogReseeds, c.RequestsSent, c.DirectRequestsSent)
	}
}
