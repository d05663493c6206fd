package netsim

import (
	"testing"

	"repro/internal/des"
)

// buildPair returns a two-node network with a slow link so packets
// pile up in queues and in-flight events.
func buildPair(t *testing.T) (*des.Simulator, *Network, *Node, *Node) {
	t.Helper()
	sim := des.New()
	nw := New(sim)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.Connect(a, b, 8e3, 0.5) // 1 kB/s, long propagation
	nw.ComputeRoutes()
	b.Handler = func(p *Packet, in *Port) {}
	return sim, nw, a, b
}

func TestPacketsOutstandingAccounting(t *testing.T) {
	sim, nw, a, b := buildPair(t)
	for i := 0; i < 10; i++ {
		p := nw.NewPacket()
		p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = a.ID, a.ID, b.ID, 100, Data
		a.Send(p)
	}
	if got := nw.PacketsOutstanding(); got != 10 {
		t.Fatalf("outstanding = %d after 10 sends, want 10", got)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every packet reached its terminal point (delivered to b.Handler).
	if got := nw.PacketsOutstanding(); got != 0 {
		t.Fatalf("outstanding = %d after full run, want 0", got)
	}
}

func TestDrainReclaimsQueuedAndInFlight(t *testing.T) {
	sim, nw, a, b := buildPair(t)
	// Enough load that at mid-run some packets are queued, one is
	// serializing, and some are propagating.
	for i := 0; i < 30; i++ {
		p := nw.NewPacket()
		p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = a.ID, a.ID, b.ID, 100, Data
		a.Send(p)
	}
	if err := sim.RunUntil(0.6); err != nil {
		t.Fatal(err)
	}
	if nw.PacketsOutstanding() == 0 {
		t.Fatal("test needs packets in flight at mid-run")
	}
	nw.Drain()
	if got := nw.PacketsOutstanding(); got != 0 {
		t.Fatalf("outstanding = %d after Drain, want 0", got)
	}
	if sim.Pending() != 0 {
		t.Fatalf("pending events = %d after Drain, want 0", sim.Pending())
	}
	// The network is reusable after a drain: a fresh send completes.
	p := nw.NewPacket()
	p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = a.ID, a.ID, b.ID, 100, Data
	a.Send(p)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nw.PacketsOutstanding(); got != 0 {
		t.Fatalf("outstanding = %d after post-drain run, want 0", got)
	}
}
