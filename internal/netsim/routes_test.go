package netsim

import (
	"fmt"
	"testing"

	"repro/internal/des"
)

// randomForest grows trees components of total n nodes with random
// shapes, attaching each new node to a uniformly chosen earlier node of
// its component. Returns the network (routes not yet computed).
func randomForest(rng *des.RNG, n, trees int) *Network {
	nw := New(des.New())
	roots := make([]*Node, 0, trees)
	byTree := make([][]*Node, trees)
	for i := 0; i < n; i++ {
		node := nw.AddNode(fmt.Sprintf("n%d", i))
		if len(roots) < trees {
			roots = append(roots, node)
			byTree[len(roots)-1] = []*Node{node}
			continue
		}
		t := rng.Intn(trees)
		parent := byTree[t][rng.Intn(len(byTree[t]))]
		nw.Connect(parent, node, 1e9, 0.001)
		byTree[t] = append(byTree[t], node)
	}
	return nw
}

// compareTables asserts that every (src,dst) next hop matches between
// the two modes on the same network.
func compareTables(t *testing.T, nw *Network) {
	t.Helper()
	nw.Routing = RouteDense
	nw.ComputeRoutes()
	dense := nw.rt
	nw.Routing = RouteCompressed
	nw.ComputeRoutes()
	comp := nw.rt
	if dense.Kind() != "dense" || comp.Kind() != "compressed" {
		t.Fatalf("kinds: %s / %s", dense.Kind(), comp.Kind())
	}
	bound := int(nw.maxID) + 1
	for _, src := range nw.Nodes() {
		for dst := -1; dst <= bound; dst++ {
			d := dense.NextHop(src, NodeID(dst))
			c := comp.NextHop(src, NodeID(dst))
			if d != c {
				t.Fatalf("next hop mismatch at src=%v dst=%d: dense=%v compressed=%v", src, dst, d, c)
			}
		}
	}
}

func TestCompressedEqualsDenseOnTrees(t *testing.T) {
	rng := des.NewRNG(7)
	for _, n := range []int{1, 2, 3, 17, 200} {
		compareTables(t, randomForest(rng.Split(int64(n)), n, 1))
	}
}

func TestCompressedEqualsDenseOnForests(t *testing.T) {
	rng := des.NewRNG(11)
	compareTables(t, randomForest(rng.Split(1), 120, 4))
}

// TestCompressedOverlayEqualsDenseWithChords pins what a graph with
// chords gets: RouteAuto builds the dense table, and forcing
// RouteCompressed is a build error. The compressed table carries no
// overlay, so it would be wrong for the pairs a chord shortens.
func TestCompressedOverlayEqualsDenseWithChords(t *testing.T) {
	rng := des.NewRNG(13)
	nw := randomForest(rng.Split(1), 80, 1)
	nodes := nw.Nodes()
	for added := 0; added < 6; {
		a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if a == b || a.PortTo(b) != nil {
			continue
		}
		nw.Connect(a, b, 1e9, 0.001)
		added++
	}
	nw.ComputeRoutes()
	if kind := nw.RouteKind(); kind != "dense" {
		t.Fatalf("chorded graph under RouteAuto got %q, want dense", kind)
	}
	nw.Routing = RouteCompressed
	defer func() {
		if recover() == nil {
			t.Fatal("RouteCompressed on a chorded graph did not panic")
		}
	}()
	nw.ComputeRoutes()
}

func TestRouteAutoSelection(t *testing.T) {
	rng := des.NewRNG(17)
	for _, n := range []int{64, 4096} {
		nw := randomForest(rng.Split(int64(n)), n, 1)
		nw.ComputeRoutes()
		if nw.RouteKind() != "compressed" {
			t.Fatalf("%d-node tree under RouteAuto got %q, want compressed", n, nw.RouteKind())
		}
		if nw.RouteBytes() >= int64(64*n) {
			t.Fatalf("compressed table costs %d bytes for %d nodes; want O(N)", nw.RouteBytes(), n)
		}
		// One chord and Auto must fall back to dense, at any size: the
		// compressed table only describes forests.
		ns := nw.Nodes()
		nw.Connect(ns[1], ns[n-1], 1e9, 0.001)
		nw.ComputeRoutes()
		if nw.RouteKind() != "dense" {
			t.Fatalf("%d-node chorded graph under RouteAuto got %q, want dense", n, nw.RouteKind())
		}
	}
}

// TestCompressedDeliversEndToEnd drives real packets over a compressed
// route table and checks delivery, not just table equality.
func TestCompressedDeliversEndToEnd(t *testing.T) {
	rng := des.NewRNG(23)
	nw := randomForest(rng.Split(1), 150, 1)
	nw.Routing = RouteCompressed
	nw.ComputeRoutes()
	nodes := nw.Nodes()
	got := map[NodeID]int{}
	for _, n := range nodes {
		n := n
		n.Handler = func(p *Packet, in *Port) { got[n.ID]++ }
	}
	src := nodes[len(nodes)-1]
	for _, dst := range []NodeID{0, nodes[1].ID, nodes[75].ID} {
		p := src.NewPacket()
		p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = src.ID, src.ID, dst, 400, Data
		src.Send(p)
	}
	if err := nw.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []NodeID{0, nodes[1].ID, nodes[75].ID} {
		if got[dst] != 1 {
			t.Fatalf("dst %d received %d packets, want 1", dst, got[dst])
		}
	}
	if out := nw.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets outstanding", out)
	}
}

// TestClusterCompressedEqualsDense pins cluster-wide equality when cut
// edges split the tree over parts: the compressed table must agree with
// the dense one across part boundaries too.
func TestClusterCompressedEqualsDense(t *testing.T) {
	build := func(mode RouteMode) *Cluster {
		ss := des.NewSharded(1, 2)
		cl := NewCluster(ss, []int{0, 1})
		cl.Routing = mode
		var nodes []*Node
		rng := des.NewRNG(29)
		for i := 0; i < 60; i++ {
			n := cl.AddNode(i%2, fmt.Sprintf("n%d", i))
			if i > 0 {
				cl.Connect(nodes[rng.Intn(len(nodes))], n, 1e9, 0.002)
			}
			nodes = append(nodes, n)
		}
		cl.ComputeRoutes()
		return cl
	}
	dense := build(RouteDense)
	comp := build(RouteCompressed)
	if dense.RouteKind() != "dense" || comp.RouteKind() != "compressed" {
		t.Fatalf("kinds: %s / %s", dense.RouteKind(), comp.RouteKind())
	}
	for _, n := range dense.Nodes() {
		cn := comp.Node(n.ID)
		for dst := 0; dst < len(dense.Nodes()); dst++ {
			d, c := n.NextHop(NodeID(dst)), cn.NextHop(NodeID(dst))
			switch {
			case (d == nil) != (c == nil):
				t.Fatalf("reachability mismatch src=%d dst=%d", n.ID, dst)
			case d != nil && (d.Node().ID != c.Node().ID || d.Index() != c.Index()):
				t.Fatalf("next hop mismatch src=%d dst=%d: dense port %d of %d, compressed port %d of %d",
					n.ID, dst, d.Index(), d.Node().ID, c.Index(), c.Node().ID)
			}
		}
	}
}

// TestIDSpillLookup pins the sparse-part fix: cluster-global IDs beyond
// a part's dense prefix land in the spill map, resolve through
// Network.Node, and no nil-hole slice growth happens.
func TestIDSpillLookup(t *testing.T) {
	ss := des.NewSharded(1, 1)
	cl := NewCluster(ss, []int{0, 0})
	a := cl.AddNode(0, "a") // part 0, ID 0 (dense prefix)
	b := cl.AddNode(1, "b") // part 1, ID 1 (spill: part 1's prefix is empty)
	c := cl.AddNode(0, "c") // part 0, ID 2 (spill: part 0's prefix ends at 1)
	for _, tc := range []struct {
		nw   *Network
		id   NodeID
		want *Node
	}{
		{cl.Part(0), 0, a}, {cl.Part(0), 1, nil}, {cl.Part(0), 2, c},
		{cl.Part(1), 0, nil}, {cl.Part(1), 1, b}, {cl.Part(1), 2, nil},
		{cl.Part(0), 3, nil}, {cl.Part(0), -1, nil},
	} {
		if got := tc.nw.Node(tc.id); got != tc.want {
			t.Fatalf("Node(%d) = %v, want %v", tc.id, got, tc.want)
		}
	}
	if got := len(cl.Part(1).idIndex); got != 0 {
		t.Fatalf("part 1 grew a %d-entry idIndex for spilled IDs; want 0 (no nil holes)", got)
	}
	if cl.Node(1) != b || cl.Node(2) != c {
		t.Fatal("cluster-global lookup broken")
	}
}

// TestInjectArrivalPipeline pins Node.Inject semantics: the packet goes
// through the normal arrival pipeline (ingress blocking, TTL, hooks).
func TestInjectArrivalPipeline(t *testing.T) {
	nw := New(des.New())
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	c := nw.AddNode("c")
	nw.Connect(a, b, 1e9, 0.001)
	nw.Connect(b, c, 1e9, 0.001)
	nw.ComputeRoutes()

	delivered := 0
	c.Handler = func(p *Packet, in *Port) { delivered++ }

	inPort := b.PortTo(a) // packets "from a" materialize on this port
	inject := func() {
		p := nw.NewPacket()
		p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = a.ID, a.ID, c.ID, 400, Data
		b.Inject(p, inPort)
	}
	inject()
	if err := nw.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	// Ingress blocking must drop injected packets exactly like wire
	// arrivals — the post-capture behavior macro flows rely on.
	inPort.BlockedIngress = true
	before := b.Stats.Drops[DropIngressBlocked]
	inject()
	if err := nw.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 || b.Stats.Drops[DropIngressBlocked] != before+1 {
		t.Fatalf("blocked ingress: delivered=%d drops=%d", delivered, b.Stats.Drops[DropIngressBlocked])
	}
	if out := nw.PacketsOutstanding(); out != 0 {
		t.Fatalf("%d packets outstanding", out)
	}
}
