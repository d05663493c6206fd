package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// line builds a string topology n0 - n1 - ... - n(k-1) with uniform
// link parameters and computed routes.
func line(t testing.TB, k int, bw, delay float64) (*des.Simulator, *Network, []*Node) {
	t.Helper()
	sim := des.New()
	nw := New(sim)
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = nw.AddNode("")
	}
	for i := 0; i+1 < k; i++ {
		nw.Connect(nodes[i], nodes[i+1], bw, delay)
	}
	nw.ComputeRoutes()
	return sim, nw, nodes
}

func TestDeliveryAcrossOneLink(t *testing.T) {
	sim, _, nodes := line(t, 2, 1e6, 0.01)
	var got *Packet
	var at float64
	nodes[1].Handler = func(p *Packet, in *Port) {
		cp := *p // handlers must not retain p; the network reclaims it
		got, at = &cp, sim.Now()
	}
	pkt := &Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 1000, Type: Data}
	sim.At(0, func() { nodes[0].Send(pkt) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// 1000 bytes at 1 Mb/s = 8 ms serialization + 10 ms propagation.
	want := 0.008 + 0.01
	if math.Abs(at-want) > 1e-9 {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestMultiHopLatency(t *testing.T) {
	sim, _, nodes := line(t, 5, 1e6, 0.01)
	var at float64
	nodes[4].Handler = func(p *Packet, in *Port) { at = sim.Now() }
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[4].ID, Size: 1000, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := 4 * (0.008 + 0.01) // store-and-forward per hop
	if math.Abs(at-want) > 1e-9 {
		t.Fatalf("4-hop delivery at %v, want %v", at, want)
	}
}

func TestSelfDelivery(t *testing.T) {
	sim, _, nodes := line(t, 2, 1e6, 0.01)
	delivered := false
	nodes[0].Handler = func(p *Packet, in *Port) {
		delivered = true
		if in != nil {
			t.Error("self-delivery should have nil in-port")
		}
	}
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[0].ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestTTLStampAndDecrement(t *testing.T) {
	sim, _, nodes := line(t, 4, 1e6, 0.001)
	var ttl int
	nodes[3].Handler = func(p *Packet, in *Port) { ttl = p.TTL }
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[3].ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Two intermediate routers decrement 255 -> 253.
	if ttl != DefaultTTL-2 {
		t.Fatalf("TTL at destination = %d, want %d", ttl, DefaultTTL-2)
	}
}

func TestOneHopControlArrivesWithFullTTL(t *testing.T) {
	// The paper's hop-by-hop message authentication: a message from a
	// direct neighbor arrives with TTL still 255.
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	var oneHopTTL, twoHopTTL int
	nodes[1].Handler = func(p *Packet, in *Port) { oneHopTTL = p.TTL }
	nodes[2].Handler = func(p *Packet, in *Port) { twoHopTTL = p.TTL }
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 100, Type: Control})
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Control})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if oneHopTTL != DefaultTTL {
		t.Fatalf("one-hop TTL = %d, want %d", oneHopTTL, DefaultTTL)
	}
	if twoHopTTL != DefaultTTL-1 {
		t.Fatalf("two-hop TTL = %d, want %d", twoHopTTL, DefaultTTL-1)
	}
}

func TestTTLExpiry(t *testing.T) {
	sim, _, nodes := line(t, 4, 1e6, 0.001)
	delivered := false
	nodes[3].Handler = func(p *Packet, in *Port) { delivered = true }
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[3].ID, Size: 100, Type: Data, TTL: 2})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("TTL-2 packet should expire at second router")
	}
	if nodes[2].Stats.Drops[DropTTL] != 1 {
		t.Fatalf("TTL drop not accounted: %+v", nodes[2].Stats)
	}
}

func TestQueueOverflowDropTail(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	received := 0
	nodes[2].Handler = func(p *Packet, in *Port) { received++ }
	// Middle node's egress queue holds 50; blast 200 packets
	// simultaneously through it.
	sim.At(0, func() {
		for i := 0; i < 200; i++ {
			nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 1000, Type: Data, Seq: int64(i)})
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// First egress (node0) drops 200-51, etc. The key invariant:
	// received + total queue drops == 200.
	total := received + int(nodes[0].Stats.Drops[DropQueue]) + int(nodes[1].Stats.Drops[DropQueue])
	if total != 200 {
		t.Fatalf("received %d + drops != 200 (got %d)", received, total)
	}
	if nodes[0].Stats.Drops[DropQueue] == 0 {
		t.Fatal("expected drop-tail losses at the sender's egress queue")
	}
}

func TestControlPriorityLane(t *testing.T) {
	sim, nw, nodes := line(t, 2, 1e6, 0.001)
	_ = nw
	var order []PacketType
	nodes[1].Handler = func(p *Packet, in *Port) { order = append(order, p.Type) }
	sim.At(0, func() {
		// Fill the data lane, then send one control packet; it must
		// leapfrog the queued data.
		for i := 0; i < 10; i++ {
			nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 1000, Type: Data})
		}
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 100, Type: Control})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 11 {
		t.Fatalf("delivered %d packets, want 11", len(order))
	}
	// The first packet was already in transmission; control should be
	// no later than second.
	if order[0] != Control && order[1] != Control {
		t.Fatalf("control packet did not jump the queue: %v", order[:3])
	}
}

func TestForwardHookDrop(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	delivered := 0
	nodes[2].Handler = func(p *Packet, in *Port) { delivered++ }
	// Filter at the middle router: drop packets claiming Src == 42.
	nodes[1].AddHook(ForwardFunc(func(n *Node, p *Packet, in, out *Port) bool {
		return p.Src != 42
	}))
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: 42, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data})
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (spoofed packet filtered)", delivered)
	}
	if nodes[1].Stats.Drops[DropHook] != 1 {
		t.Fatalf("hook drop not accounted: %+v", nodes[1].Stats)
	}
}

func TestRemoveHook(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	delivered := 0
	nodes[2].Handler = func(p *Packet, in *Port) { delivered++ }
	remove := nodes[1].AddHook(ForwardFunc(func(n *Node, p *Packet, in, out *Port) bool { return false }))
	remove()
	remove() // double removal must be harmless
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("packet dropped by removed hook")
	}
}

func TestBlockedIngress(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	delivered := 0
	nodes[2].Handler = func(p *Packet, in *Port) { delivered++ }
	// Block the access port: node1's port facing node0.
	in := nodes[1].PortTo(nodes[0])
	in.BlockedIngress = true
	sim.At(0, func() {
		nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("packet crossed a blocked ingress port")
	}
	if in.IngressDrops != 1 {
		t.Fatalf("ingress drop not counted: %d", in.IngressDrops)
	}
}

func TestRoutesOnTree(t *testing.T) {
	// Star-of-lines:   2 - 0 - 1 - 3
	//                      |
	//                      4
	sim := des.New()
	nw := New(sim)
	n := make([]*Node, 5)
	for i := range n {
		n[i] = nw.AddNode("")
	}
	nw.Connect(n[0], n[1], 1e6, 0.001)
	nw.Connect(n[0], n[2], 1e6, 0.001)
	nw.Connect(n[1], n[3], 1e6, 0.001)
	nw.Connect(n[0], n[4], 1e6, 0.001)
	nw.ComputeRoutes()

	if got := nw.PathHops(n[2].ID, n[3].ID); got != 3 {
		t.Fatalf("hops(2,3) = %d, want 3", got)
	}
	if got := nw.PathHops(n[4].ID, n[4].ID); got != 0 {
		t.Fatalf("hops(4,4) = %d, want 0", got)
	}
	path := nw.Path(n[2].ID, n[3].ID)
	if len(path) != 4 || path[0] != n[2] || path[1] != n[0] || path[2] != n[1] || path[3] != n[3] {
		t.Fatalf("wrong path: %v", path)
	}
	// Next hop from 2 toward 3 must be the port to 0.
	if nh := n[2].NextHop(n[3].ID); nh.Peer().Node() != n[0] {
		t.Fatalf("next hop from 2 to 3 = %v", nh.Peer().Node())
	}
}

func TestUnreachable(t *testing.T) {
	sim := des.New()
	nw := New(sim)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	c := nw.AddNode("c") // isolated
	nw.Connect(a, b, 1e6, 0.001)
	nw.ComputeRoutes()
	if nw.PathHops(a.ID, c.ID) != -1 {
		t.Fatal("expected unreachable")
	}
	sim.At(0, func() {
		a.Send(&Packet{Src: a.ID, TrueSrc: a.ID, Dst: c.ID, Size: 100, Type: Data})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Drops[DropNoRoute] != 1 {
		t.Fatalf("no-route drop not counted: %+v", a.Stats)
	}
}

func TestConnectValidation(t *testing.T) {
	sim := des.New()
	nw := New(sim)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b, 1e6, 0.001)
	cases := []func(){
		func() { nw.Connect(a, a, 1e6, 0.001) },
		func() { nw.Connect(a, b, 1e6, 0.001) },
		func() { nw.Connect(a, nw.AddNode("c"), 0, 0.001) },
		func() { nw.Connect(a, nw.AddNode("d"), 1e6, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid Connect did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPortIndexAndPortTo(t *testing.T) {
	sim := des.New()
	nw := New(sim)
	a, b, c := nw.AddNode("a"), nw.AddNode("b"), nw.AddNode("c")
	nw.Connect(a, b, 1e6, 0.001)
	nw.Connect(a, c, 1e6, 0.001)
	if a.PortTo(b).Index() != 0 || a.PortTo(c).Index() != 1 {
		t.Fatal("port indices do not follow attachment order")
	}
	if a.PortTo(a) != nil {
		t.Fatal("PortTo(self) should be nil")
	}
	if got := a.Neighbors(); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Neighbors = %v", got)
	}
}

func TestSpoofedAndClone(t *testing.T) {
	p := &Packet{Src: 5, TrueSrc: 7, Dst: 1}
	if !p.Spoofed() {
		t.Fatal("Src!=TrueSrc should report spoofed")
	}
	q := *p
	q.Src = 7
	if p.Src != 5 {
		t.Fatal("a value copy aliases the original")
	}
	if q.Spoofed() {
		t.Fatal("clone with Src==TrueSrc reports spoofed")
	}
}

func TestThroughputConservation(t *testing.T) {
	// Property: on a 2-hop path with a slow middle link, bytes
	// delivered == bytes sent - bytes dropped, for arbitrary bursts.
	f := func(burst uint8) bool {
		n := int(burst)%100 + 1
		sim, _, nodes := line(t, 3, 1e5, 0.001)
		delivered := 0
		nodes[2].Handler = func(p *Packet, in *Port) { delivered++ }
		sim.At(0, func() {
			for i := 0; i < n; i++ {
				nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 500, Type: Data})
			}
		})
		if err := sim.Run(); err != nil {
			return false
		}
		drops := int(nodes[0].Stats.Drops[DropQueue] + nodes[1].Stats.Drops[DropQueue])
		return delivered+drops == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkUtilizationBound(t *testing.T) {
	// Property: a link can never deliver more bytes per second than
	// its bandwidth allows.
	sim, _, nodes := line(t, 2, 8e5, 0) // 100 kB/s
	received := 0
	nodes[1].Handler = func(p *Packet, in *Port) { received += 1000 }
	sim.At(0, func() {
		for i := 0; i < 1000; i++ {
			nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 1000, Type: Data})
		}
	})
	if err := sim.RunUntil(0.2); err != nil {
		t.Fatal(err)
	}
	// 0.2 s at 100 kB/s = 20 kB max.
	if received > 20000 {
		t.Fatalf("link delivered %d bytes in 0.2s, exceeds capacity", received)
	}
}

func TestStatsCounters(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e6, 0.001)
	nodes[2].Handler = func(p *Packet, in *Port) {}
	sim.At(0, func() {
		for i := 0; i < 3; i++ {
			nodes[0].Send(&Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data, Legit: true})
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Stats.Sent != 3 {
		t.Fatalf("Sent = %d", nodes[0].Stats.Sent)
	}
	if nodes[1].Stats.Forwarded != 3 {
		t.Fatalf("Forwarded = %d", nodes[1].Stats.Forwarded)
	}
	if nodes[2].Stats.Delivered != 3 {
		t.Fatalf("Delivered = %d", nodes[2].Stats.Delivered)
	}
	inPort := nodes[2].PortTo(nodes[1])
	if inPort.RxLegitDataBytes != 300 {
		t.Fatalf("RxLegitDataBytes = %d, want 300", inPort.RxLegitDataBytes)
	}
}

func TestDropReasonStrings(t *testing.T) {
	for r := DropQueue; r < dropReasonCount; r++ {
		if r.String() == "" {
			t.Fatalf("empty string for reason %d", r)
		}
	}
}

// TestAllocsPerPacketHop pins the steady-state hot path at zero heap
// allocations: once the event slab, ring buffers, and packet pool are
// warm, sending a packet across a link and running it to delivery must
// not allocate.
func TestAllocsPerPacketHop(t *testing.T) {
	sim, _, nodes := line(t, 3, 1e9, 0.0001)
	delivered := 0
	nodes[2].Handler = func(p *Packet, in *Port) { delivered++ }
	send := func() {
		p := nodes[0].NewPacket()
		*p = Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[2].ID, Size: 100, Type: Data}
		nodes[0].Send(p)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("steady-state packet hop allocates %.2f times, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestPacketPoolReuseSafety checks the ownership contract end to end:
// a delivered packet is recycled (zeroed and marked freed), the pool
// hands the same memory back on the next allocation, and a double
// free panics instead of corrupting the free list.
func TestPacketPoolReuseSafety(t *testing.T) {
	sim, nw, nodes := line(t, 2, 1e6, 0.01)
	var stale *Packet
	nodes[1].Handler = func(p *Packet, in *Port) { stale = p }
	p := nw.NewPacket()
	*p = Packet{Src: nodes[0].ID, TrueSrc: nodes[0].ID, Dst: nodes[1].ID, Size: 100, Type: Data}
	sim.At(0, func() { nodes[0].Send(p) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if stale == nil {
		t.Fatal("packet not delivered")
	}
	if !stale.freed {
		t.Fatal("delivered packet was not recycled into the pool")
	}
	if stale.Src != 0 || stale.Size != 0 || stale.Payload != nil {
		t.Fatalf("recycled packet not zeroed: %+v", stale)
	}
	q := nw.NewPacket()
	if q != stale {
		t.Fatal("pool did not reuse the freed packet")
	}
	if q.freed {
		t.Fatal("reallocated packet still marked freed")
	}
	nw.freePacket(q)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	nw.freePacket(q)
}
