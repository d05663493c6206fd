package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/netsim"
)

func TestStringTopology(t *testing.T) {
	sim := des.New()
	tr := NewString(sim, 10, 1, LinkClass{Bandwidth: 1e6, Delay: 0.01})
	if len(tr.Servers) != 1 || len(tr.Leaves) != 1 {
		t.Fatalf("servers=%d leaves=%d", len(tr.Servers), len(tr.Leaves))
	}
	host := tr.Leaves[0]
	// host -> r9..r0 -> gw = 11 hops to the gateway.
	if got := tr.LeafHops(host); got != 11 {
		t.Fatalf("LeafHops = %d, want 11", got)
	}
	// Server is one hop beyond the gateway.
	if got := tr.Net.PathHops(host.ID, tr.Servers[0].ID); got != 12 {
		t.Fatalf("host->server hops = %d, want 12", got)
	}
	if !tr.IsHost(host) || !tr.IsHost(tr.Servers[0]) {
		t.Fatal("IsHost misclassifies end hosts")
	}
	if tr.IsHost(tr.ServerGW) {
		t.Fatal("IsHost misclassifies the gateway")
	}
	if tr.AccessRouter(host) == nil || tr.IsHost(tr.AccessRouter(host)) {
		t.Fatal("access router wrong for string host")
	}
	if tr.Bottleneck == nil || tr.Root == nil {
		t.Fatal("string topology missing root/bottleneck")
	}
}

func TestStringValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("hops<1 did not panic")
		}
	}()
	NewString(des.New(), 0, 1, LinkClass{Bandwidth: 1e6, Delay: 0.01})
}

func TestTreeShape(t *testing.T) {
	sim := des.New()
	p := DefaultParams()
	p.Leaves = 150
	tr := NewTree(sim, p)

	if len(tr.Leaves) != 150 {
		t.Fatalf("leaves = %d", len(tr.Leaves))
	}
	if len(tr.Servers) != p.Servers {
		t.Fatalf("servers = %d", len(tr.Servers))
	}
	// Every leaf has an access router that is a router, and its depth
	// lies within the configured band.
	for _, l := range tr.Leaves {
		ar := tr.AccessRouter(l)
		if ar == nil || tr.IsHost(ar) {
			t.Fatalf("leaf %v has bad access router %v", l, ar)
		}
		// Leaf to gateway: access depth + leaf link + bottleneck.
		h := tr.LeafHops(l)
		min := p.MinDepth + 2
		max := p.MinDepth + len(p.HopDist) - 1 + 2
		if h < min || h > max {
			t.Fatalf("leaf hop count %d outside [%d,%d]", h, min, max)
		}
	}
	// All traffic to servers crosses the bottleneck: next hop from
	// Root toward any server must be the bottleneck link.
	for _, s := range tr.Servers {
		nh := tr.Root.NextHop(s.ID)
		if nh == nil || nh.Link() != tr.Bottleneck {
			t.Fatalf("server %v not behind the bottleneck", s)
		}
	}
}

func TestTreeDeterminism(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 60
	t1 := NewTree(des.New(), p)
	t2 := NewTree(des.New(), p)
	h1, h2 := t1.HopCountHistogram(), t2.HopCountHistogram()
	if len(h1) != len(h2) {
		t.Fatal("same seed produced different hop histograms")
	}
	for k, v := range h1 {
		if h2[k] != v {
			t.Fatalf("hop histogram differs at %d: %d vs %d", k, v, h2[k])
		}
	}
	p2 := p
	p2.Seed = 99
	t3 := NewTree(des.New(), p2)
	same := true
	h3 := t3.HopCountHistogram()
	for k, v := range h1 {
		if h3[k] != v {
			same = false
		}
	}
	if same && len(h1) == len(h3) {
		t.Log("warning: different seeds produced identical histograms (possible but unlikely)")
	}
}

func TestTreeHistograms(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 400
	tr := NewTree(des.New(), p)
	hop := tr.HopCountHistogram()
	totalLeaves := 0
	for _, n := range hop {
		totalLeaves += n
	}
	if totalLeaves != 400 {
		t.Fatalf("hop histogram covers %d leaves, want 400", totalLeaves)
	}
	deg := tr.DegreeHistogram()
	totalRouters := 0
	for d, n := range deg {
		if d < 1 {
			t.Fatalf("router with degree %d", d)
		}
		totalRouters += n
	}
	if totalRouters != len(tr.Routers) {
		t.Fatalf("degree histogram covers %d routers, want %d", totalRouters, len(tr.Routers))
	}
	// Unimodal-ish spread: more than three distinct hop counts.
	if len(hop) < 4 {
		t.Fatalf("hop-count spread too narrow: %v", hop)
	}
}

func TestPlacementPolicies(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 120
	tr := NewTree(des.New(), p)

	const nA = 30
	closeA, closeC := tr.PlaceAttackers(nA, Close, 1)
	farA, _ := tr.PlaceAttackers(nA, Far, 1)
	evenA, evenC := tr.PlaceAttackers(nA, Even, 1)

	if len(closeA) != nA || len(closeC) != p.Leaves-nA {
		t.Fatalf("close split %d/%d", len(closeA), len(closeC))
	}
	if len(evenA) != nA || len(evenC) != p.Leaves-nA {
		t.Fatalf("even split %d/%d", len(evenA), len(evenC))
	}

	mean := func(ns []*netsim.Node) float64 {
		s := 0
		for _, n := range ns {
			s += tr.LeafHops(n)
		}
		return float64(s) / float64(len(ns))
	}
	mc, mf, me := mean(closeA), mean(farA), mean(evenA)
	if !(mc < me && me < mf) {
		t.Fatalf("placement means not ordered: close=%.2f even=%.2f far=%.2f", mc, me, mf)
	}

	// Close attackers occupy the minimum available hop distances.
	maxClose := 0
	for _, a := range closeA {
		if h := tr.LeafHops(a); h > maxClose {
			maxClose = h
		}
	}
	for _, c := range closeC {
		if tr.LeafHops(c) < maxClose-0 {
			// Clients may tie with the boundary hop count but must
			// never be strictly closer than every attacker.
			if tr.LeafHops(c) < func() int {
				m := 1 << 30
				for _, a := range closeA {
					if h := tr.LeafHops(a); h < m {
						m = h
					}
				}
				return m
			}() {
				t.Fatal("a client is closer than the closest 'close' attacker")
			}
		}
	}
}

func TestPlacementDisjointAndComplete(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 80
	tr := NewTree(des.New(), p)
	f := func(nRaw uint8, policyRaw uint8) bool {
		n := int(nRaw) % (len(tr.Leaves) + 1)
		policy := Placement(int(policyRaw) % 3)
		a, c := tr.PlaceAttackers(n, policy, 7)
		if len(a) != n || len(a)+len(c) != len(tr.Leaves) {
			return false
		}
		seen := map[netsim.NodeID]bool{}
		for _, x := range a {
			seen[x.ID] = true
		}
		for _, x := range c {
			if seen[x.ID] {
				return false
			}
			seen[x.ID] = true
		}
		return len(seen) == len(tr.Leaves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementValidation(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 10
	tr := NewTree(des.New(), p)
	defer func() {
		if recover() == nil {
			t.Error("oversized placement did not panic")
		}
	}()
	tr.PlaceAttackers(11, Even, 1)
}

func TestPlacementStrings(t *testing.T) {
	for _, pl := range []Placement{Even, Close, Far} {
		if pl.String() == "" {
			t.Fatal("empty placement name")
		}
	}
}

func TestHostWeightsConsistency(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 90
	tr := NewTree(des.New(), p)
	w := tr.HostWeights()
	// The gateway's ingress from Root carries every leaf.
	in := tr.ServerGW.PortTo(tr.Root)
	if got := w.At(in); got != float64(p.Leaves) {
		t.Fatalf("gateway ingress weight %v, want %d", got, p.Leaves)
	}
	// Every leaf's own ingress port at its access router has weight
	// exactly 1 (one host behind it).
	for _, leaf := range tr.Leaves {
		ar := tr.AccessRouter(leaf)
		pt := ar.PortTo(leaf)
		if w.At(pt) != 1 {
			t.Fatalf("leaf ingress weight %v, want 1", w.At(pt))
		}
	}
	// Root's in-port weights over subtree ports sum to all leaves.
	sum := 0.0
	for _, pt := range tr.Root.Ports() {
		sum += w.At(pt)
	}
	if sum != float64(p.Leaves) {
		t.Fatalf("root ingress weights sum %v, want %d", sum, p.Leaves)
	}
}

// TestGrowTreeMatchesNewTree pins the one-generator contract: growing
// a tree inside a cluster part yields NewTree's tree with every node
// ID offset by the part's base — same names, same links and ports in
// the same order, same access/depth/host bookkeeping.
func TestGrowTreeMatchesNewTree(t *testing.T) {
	p := DefaultParams()
	p.Leaves = 60
	p.Seed = 9
	ref := NewTree(des.New(), p)

	cl := netsim.NewCluster(des.NewSharded(1, 2), []int{0, 1})
	cl.AddNode(0, "pad0")
	cl.AddNode(1, "pad1")
	cl.AddNode(0, "pad2")
	base := netsim.NodeID(len(cl.Nodes()))
	got := GrowTree(cl, 1, p)
	if got.Net != cl.Part(1) {
		t.Fatal("grown tree is not bound to its part network")
	}

	refNodes, gotNodes := ref.Net.Nodes(), cl.Nodes()[base:]
	if len(gotNodes) != len(refNodes) {
		t.Fatalf("grew %d nodes, NewTree built %d", len(gotNodes), len(refNodes))
	}
	for i, rn := range refNodes {
		gn := gotNodes[i]
		if gn.ID != rn.ID+base || gn.Name != rn.Name || gn.Degree() != rn.Degree() {
			t.Fatalf("node %d: got %v (degree %d), want %v offset by %d (degree %d)", i, gn, gn.Degree(), rn, base, rn.Degree())
		}
		for j, pt := range rn.Ports() {
			if far := gn.Ports()[j].Peer().Node().ID; far != pt.Peer().Node().ID+base {
				t.Fatalf("node %v port %d leads to %d, want %d", gn, j, far, pt.Peer().Node().ID+base)
			}
		}
		if got.IsHost(gn) != ref.IsHost(rn) {
			t.Fatalf("node %v: IsHost %v, want %v", gn, got.IsHost(gn), ref.IsHost(rn))
		}
	}
	refLinks, gotLinks := ref.Net.Links(), got.Net.Links()
	if len(gotLinks) != len(refLinks) {
		t.Fatalf("grew %d links, NewTree built %d", len(gotLinks), len(refLinks))
	}
	for i, rl := range refLinks {
		gl := gotLinks[i]
		if gl.A().Node().ID != rl.A().Node().ID+base || gl.B().Node().ID != rl.B().Node().ID+base ||
			gl.Bandwidth != rl.Bandwidth || gl.Delay != rl.Delay {
			t.Fatalf("link %d: got %v, want %v offset by %d", i, gl, rl, base)
		}
	}

	sameNodes := func(what string, g, r []*netsim.Node) {
		t.Helper()
		if len(g) != len(r) {
			t.Fatalf("%s: %d nodes, want %d", what, len(g), len(r))
		}
		for i := range r {
			if g[i].ID != r[i].ID+base {
				t.Fatalf("%s[%d] = %v, want %v offset by %d", what, i, g[i], r[i], base)
			}
		}
	}
	sameNodes("root/gateway", []*netsim.Node{got.Root, got.ServerGW}, []*netsim.Node{ref.Root, ref.ServerGW})
	sameNodes("servers", got.Servers, ref.Servers)
	sameNodes("leaves", got.Leaves, ref.Leaves)
	sameNodes("routers", got.Routers, ref.Routers)
	if got.Bottleneck != got.Root.PortTo(got.ServerGW).Link() {
		t.Fatal("bottleneck is not the root/gateway link")
	}
	for i, leaf := range ref.Leaves {
		if acc := got.AccessRouter(got.Leaves[i]); acc.ID != ref.AccessRouter(leaf).ID+base {
			t.Fatalf("leaf %d: access router %v, want %v offset by %d", i, acc, ref.AccessRouter(leaf), base)
		}
	}
	if len(got.depth) != len(ref.depth) {
		t.Fatalf("depth recorded for %d routers, want %d", len(got.depth), len(ref.depth))
	}
	for id, d := range ref.depth {
		if gd, ok := got.depth[id+base]; !ok || gd != d {
			t.Fatalf("router %d: depth %d (present %v), want %d", id+base, gd, ok, d)
		}
	}
}
