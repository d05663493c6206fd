package netsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/des"
)

// crossHost is one traffic endpoint of the cluster test workload. Its
// RNG stream and trace are keyed by a stable host label, so behavior
// is a function of the seed and never of part placement.
type crossHost struct {
	n     *Node
	rng   *des.RNG
	peers []NodeID
	seq   int64
	trace []string
}

func (h *crossHost) sendLoop(stopAt float64) {
	sim := h.n.Network().Sim
	if sim.Now() >= stopAt {
		return
	}
	p := h.n.NewPacket()
	p.Src, p.TrueSrc = h.n.ID, h.n.ID
	p.Dst = h.peers[h.rng.Intn(len(h.peers))]
	p.Size = 400 + 100*h.rng.Intn(3)
	p.Type = Data
	p.Legit = true
	h.seq++
	p.Seq = h.seq
	h.n.Send(p)
	// Quantized intervals provoke simultaneous events across parts —
	// the ties whose ordering must be placement-independent.
	sim.After(0.001*float64(1+h.rng.Intn(4)), func() { h.sendLoop(stopAt) })
}

// buildCrossCluster assembles a 3-part chain — each part one router
// plus one host, routers joined by cut links — on the given placement
// and wires host traffic between all host pairs.
func buildCrossCluster(ss *des.ShardedSimulator, place []int, seed int64) (*Cluster, []*crossHost) {
	cl := NewCluster(ss, place)
	hosts := make([]*crossHost, len(place))
	routers := make([]*Node, len(place))
	for part := range place {
		r := cl.AddNode(part, fmt.Sprintf("r%d", part))
		n := cl.AddNode(part, fmt.Sprintf("h%d", part))
		cl.Connect(r, n, 10e6, 0.001)
		routers[part] = r
		hosts[part] = &crossHost{n: n, rng: des.NewRNG(des.DeriveSeed(seed, int64(1000+part)))}
	}
	for part := 1; part < len(place); part++ {
		cl.Connect(routers[part-1], routers[part], 5e6, 0.002)
	}
	cl.ComputeRoutes()
	for i, h := range hosts {
		for j, other := range hosts {
			if j != i {
				h.peers = append(h.peers, other.n.ID)
			}
		}
		h := h
		h.n.Handler = func(p *Packet, in *Port) {
			h.trace = append(h.trace, fmt.Sprintf("%.9f h%d<-%d#%d", h.n.Network().Sim.Now(), i, p.Src, p.Seq))
		}
	}
	return cl, hosts
}

func runCrossCluster(t *testing.T, seed int64, place []int, shards int) (string, uint64) {
	t.Helper()
	ss := des.NewSharded(seed, shards)
	cl, hosts := buildCrossCluster(ss, place, seed)
	for _, h := range hosts {
		h := h
		h.n.Network().Sim.At(0.001, func() { h.sendLoop(1.0) })
	}
	if err := ss.RunUntil(1.5); err != nil {
		t.Fatalf("run: %v", err)
	}
	cl.Drain()
	if out := cl.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets leaked after drain", out)
	}
	var sb strings.Builder
	for _, h := range hosts {
		fmt.Fprintf(&sb, "%s\n", strings.Join(h.trace, ","))
	}
	return sb.String(), ss.Fired()
}

// TestClusterMatchesAcrossPlacements pins the headline invariant at
// the packet level: the same 3-part model produces bit-identical
// delivery traces whether its parts share one shard or spread over
// two or three.
func TestClusterMatchesAcrossPlacements(t *testing.T) {
	parts3 := []int{0, 0, 0}
	ref, refFired := runCrossCluster(t, 11, parts3, 1)
	if !strings.Contains(ref, "<-") || len(strings.Split(ref, ",")) < 50 {
		t.Fatalf("workload too thin to be meaningful:\n%s", ref)
	}
	for _, tc := range []struct {
		shards int
		place  []int
	}{
		{2, []int{0, 1, 0}},
		{3, []int{0, 1, 2}},
		{4, []int{2, 0, 3}},
	} {
		got, fired := runCrossCluster(t, 11, tc.place, tc.shards)
		if got != ref {
			t.Fatalf("placement %v diverged from single-shard run\n--- 1 shard\n%s--- %v\n%s", tc.place, ref, tc.place, got)
		}
		if fired != refFired {
			t.Fatalf("placement %v fired %d events, single shard fired %d", tc.place, fired, refFired)
		}
	}
	other, _ := runCrossCluster(t, 12, parts3, 1)
	if other == ref {
		t.Fatal("different seed produced an identical trace")
	}
}

// TestClusterDrainReclaimsCrossTransit aborts a run mid-flight so
// packets are stranded in every transfer stage — source heaps, channel
// outboxes, injected-but-unfired cross deliveries — and checks the
// leak gauges still balance to zero after Drain.
func TestClusterDrainReclaimsCrossTransit(t *testing.T) {
	boom := errors.New("abort")
	ss := des.NewSharded(5, 2)
	cl, hosts := buildCrossCluster(ss, []int{0, 1, 0}, 5)
	for _, h := range hosts {
		h := h
		h.n.Network().Sim.At(0.001, func() { h.sendLoop(1.0) })
	}
	ss.SetInterrupt(func() error {
		if ss.Fired() > 500 {
			return boom
		}
		return nil
	})
	if err := ss.RunUntil(1.5); !errors.Is(err, boom) {
		t.Fatalf("want abort error, got %v", err)
	}
	if out := cl.PacketsOutstanding(); out <= 0 {
		t.Fatalf("expected packets in flight at abort, gauge reads %d", out)
	}
	cl.Drain()
	if out := cl.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets leaked after drain", out)
	}
	if ss.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", ss.Pending())
	}
}

// TestClusterPoolRefillsAcrossShards drives one-way traffic across a
// shard boundary: both senders live on shard-1 parts and every packet
// ends, and is freed, on shard 0. The window-barrier top-up must carry
// freed packets back to the emitting shard, so once the first packets
// have come round no emission allocates a fresh packet, the leak gauge
// still balances, and the delivery trace equals the single-shard run's.
func TestClusterPoolRefillsAcrossShards(t *testing.T) {
	// The emission period exceeds the 2 ms cut lookahead, so every
	// window holds at most one emission instant: both senders emit at
	// it, and a window's demand is 0 or 2.
	const period, stopAt, warmUp = 0.003, 1.0, 0.03
	type outcome struct {
		trace string
		fresh []float64 // emission times of packets never seen before
		sent  int
	}
	run := func(place []int, shards int) outcome {
		var out outcome
		ss := des.NewSharded(3, shards)
		cl, hosts := buildCrossCluster(ss, place, 3)
		sink := hosts[0].n.ID
		// Only the senders allocate packets, so a pointer they have not
		// emitted before is a fresh allocation, not a recycled one.
		emitted := map[*Packet]bool{}
		for _, h := range hosts[1:] {
			h := h
			sim := h.n.Network().Sim
			var emit func()
			emit = func() {
				if sim.Now() >= stopAt {
					return
				}
				p := h.n.NewPacket()
				if !emitted[p] {
					emitted[p] = true
					out.fresh = append(out.fresh, sim.Now())
				}
				p.Src, p.TrueSrc, p.Dst = h.n.ID, h.n.ID, sink
				p.Size, p.Type, p.Legit = 500, Data, true
				h.seq++
				p.Seq = h.seq
				out.sent++
				h.n.Send(p)
				sim.After(period, emit)
			}
			sim.At(period, emit)
		}
		if err := ss.RunUntil(stopAt + 0.5); err != nil {
			t.Fatalf("placement %v: run: %v", place, err)
		}
		cl.Drain()
		if got := cl.PacketsOutstanding(); got != 0 {
			t.Fatalf("placement %v: %d packets outstanding after drain", place, got)
		}
		out.trace = strings.Join(hosts[0].trace, ",")
		return out
	}

	ref := run([]int{0, 0, 0}, 1)
	got := run([]int{0, 1, 1}, 2)
	if got.trace != ref.trace {
		t.Fatalf("placement {0,1,1} diverged from {0,0,0}\n--- {0,0,0}\n%s\n--- {0,1,1}\n%s", ref.trace, got.trace)
	}
	if n := strings.Count(got.trace, "<-"); n != got.sent || n < 600 {
		t.Fatalf("%d of %d packets delivered; want every one of at least 600", n, got.sent)
	}
	if len(got.fresh) == 0 {
		t.Fatal("no fresh packet at all: the count is not measuring allocation")
	}
	t.Logf("%d fresh packets for %d emissions, the last at t=%.3f s", len(got.fresh), got.sent, got.fresh[len(got.fresh)-1])
	if last := got.fresh[len(got.fresh)-1]; last >= warmUp {
		t.Fatalf("%d of %d emissions allocated a fresh packet, the last at t=%.3f s; want none after the %.3f s warm-up",
			len(got.fresh), got.sent, last, warmUp)
	}
}

// TestClusterPoolsOwnTheirCacheLines: each shard's pool is written on
// every packet hand-out and return by that shard's goroutine, so no two
// pools may share a 128-byte block (a 64-byte line and the neighbour
// the prefetcher pairs with it), wherever the allocator puts them.
func TestClusterPoolsOwnTheirCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(packetPool{}); got != 128 {
		t.Fatalf("packetPool is %d bytes, want 128 (its own 128-byte size class)", got)
	}
	ss := des.NewSharded(1, 8)
	cl := NewCluster(ss, []int{0, 1, 2, 3, 4, 5, 6, 7})
	blocks := map[uintptr]int{}
	for i, p := range cl.pools {
		addr := uintptr(unsafe.Pointer(p))
		if addr%128 != 0 {
			t.Errorf("pool %d at %#x is not on a 128-byte boundary", i, addr)
		}
		if j, ok := blocks[addr/128]; ok {
			t.Errorf("pools %d and %d share the 128-byte block at %#x", j, i, addr/128*128)
		}
		blocks[addr/128] = i
	}
}

// TestClusterRoutesSpanParts checks global route computation over cut
// edges: hop counts through the 3-part chain and next-hop egress ports
// across the boundary.
func TestClusterRoutesSpanParts(t *testing.T) {
	ss := des.NewSharded(1, 3)
	cl, hosts := buildCrossCluster(ss, []int{0, 1, 2}, 1)
	h0, h2 := hosts[0].n, hosts[2].n
	if got := cl.PathHops(h0.ID, h2.ID); got != 4 {
		t.Fatalf("PathHops(h0, h2) = %d, want 4", got)
	}
	if next := h0.NextHop(h2.ID); next == nil || next.farNode().Name != "r0" {
		t.Fatalf("h0 next hop toward h2 = %v", next)
	}
	r0 := cl.Node(0)
	out := r0.NextHop(h2.ID)
	if out == nil || out.Peer() != nil || out.Far() == nil {
		t.Fatalf("r0's route toward h2 should use a cross-part port, got %v", out)
	}
	if nb := out.farNode(); nb == nil || nb.Name != "r1" {
		t.Fatalf("r0's cross next hop = %v, want r1", nb)
	}
}
