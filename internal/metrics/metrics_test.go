package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/netsim"
)

func TestSeriesMeanBetween(t *testing.T) {
	s := Series{
		Times:  []float64{1, 2, 3, 4, 5},
		Values: []float64{10, 20, 30, 40, 50},
	}
	if got := s.MeanBetween(2, 5); got != 30 { // samples at 2,3,4
		t.Fatalf("MeanBetween = %v, want 30", got)
	}
	if got := s.MeanBetween(100, 200); got != 0 {
		t.Fatalf("empty window = %v", got)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Min() != 10 {
		t.Fatalf("Min = %v", s.Min())
	}
	empty := Series{}
	if empty.Min() != 0 {
		t.Fatal("empty Min should be 0")
	}
}

func TestThroughputMonitor(t *testing.T) {
	sim := des.New()
	nw := netsim.New(sim)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b, 1e6, 0.001) // 1 Mb/s
	nw.ComputeRoutes()
	b.Handler = func(p *netsim.Packet, in *netsim.Port) {}
	mon := NewBottleneckMonitor(sim, link, b, 1.0)
	// Send 50 legit kB/s = 0.4 Mb/s = 40% of capacity, plus attack
	// traffic that must not count.
	sendEvery := func(size int, period float64, legit bool) {
		sim.Every(0, period, func() {
			a.Send(&netsim.Packet{Src: a.ID, TrueSrc: a.ID, Dst: b.ID, Size: size, Type: netsim.Data, Legit: legit})
		})
	}
	sendEvery(500, 0.01, true)  // 50 kB/s legit
	sendEvery(500, 0.02, false) // 25 kB/s attack
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	s := mon.Series()
	if s.Len() < 9 {
		t.Fatalf("only %d samples", s.Len())
	}
	got := s.MeanBetween(2, 10)
	if math.Abs(got-0.4) > 0.05 {
		t.Fatalf("legit throughput fraction = %v, want ~0.4", got)
	}
	mon.Stop()
	n := s.Len()
	if err := sim.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatal("monitor kept sampling after Stop")
	}
}

func TestMonitorPortSelection(t *testing.T) {
	sim := des.New()
	nw := netsim.New(sim)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b, 1e6, 0.001)
	nw.ComputeRoutes()
	// Monitoring "into a" must pick the a-side port.
	monA := NewBottleneckMonitor(sim, link, a, 1.0)
	b.Handler = func(p *netsim.Packet, in *netsim.Port) {}
	sim.Every(0, 0.01, func() {
		a.Send(&netsim.Packet{Src: a.ID, TrueSrc: a.ID, Dst: b.ID, Size: 500, Type: netsim.Data, Legit: true})
	})
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	// Traffic flows a->b, so the a-side monitor must read ~0.
	if got := monA.Series().MeanBetween(1, 5); got > 0.01 {
		t.Fatalf("reverse-direction monitor reads %v", got)
	}
}

func TestCaptureTimes(t *testing.T) {
	got := CaptureTimes([]float64{40, 55, 70}, 50)
	if len(got) != 2 || got[0] != 5 || got[1] != 20 {
		t.Fatalf("CaptureTimes = %v", got)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Fatalf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty-input stats should be 0")
	}
}

func TestStatProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		mean := Mean(xs)
		if mean < slices.Min(xs)-1e-9 || mean > slices.Max(xs)+1e-9 {
			return false
		}
		return StdDev(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControlStatsAddAndString(t *testing.T) {
	a := ControlStats{AcksSent: 1, AcksReceived: 2, Retransmissions: 3, GiveUps: 4, LeaseExpiries: 5, SessionsLostToCrash: 6}
	b := ControlStats{AcksSent: 10, Retransmissions: 30, SessionsLostToCrash: 60}
	a.Add(b)
	want := ControlStats{AcksSent: 11, AcksReceived: 2, Retransmissions: 33, GiveUps: 4, LeaseExpiries: 5, SessionsLostToCrash: 66}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSecurityStatsAddAndString(t *testing.T) {
	a := SecurityStats{AuthRejects: 1, ReplayRejects: 2, AdmissionRejects: 3,
		SessionEvictions: 4, DedupEvictions: 5, PendingOverflows: 6,
		WatchdogReseeds: 7, ByzantineInjections: 8}
	b := SecurityStats{AuthRejects: 10, SessionEvictions: 40, ByzantineInjections: 80}
	a.Add(b)
	want := SecurityStats{AuthRejects: 11, ReplayRejects: 2, AdmissionRejects: 3,
		SessionEvictions: 44, DedupEvictions: 5, PendingOverflows: 6,
		WatchdogReseeds: 7, ByzantineInjections: 88}
	if a != want {
		t.Fatalf("Add: got %+v, want %+v", a, want)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}
