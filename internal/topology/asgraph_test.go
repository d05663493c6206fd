package topology

import (
	"math"
	"testing"

	"repro/internal/des"
)

func TestASGraphDeterminism(t *testing.T) {
	p := ASGraphParams{ASes: 3000, Gamma: 2.1, Seed: 7}
	a, b := GenerateASGraph(p), GenerateASGraph(p)
	for i := range a.Parent {
		if a.Parent[i] != b.Parent[i] {
			t.Fatalf("parent[%d] differs across identical params: %d vs %d", i, a.Parent[i], b.Parent[i])
		}
	}
	c := GenerateASGraph(ASGraphParams{ASes: 3000, Gamma: 2.1, Seed: 8})
	same := true
	for i := range a.Parent {
		if a.Parent[i] != c.Parent[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestASGraphShape(t *testing.T) {
	g := GenerateASGraph(ASGraphParams{ASes: 20000, Gamma: 2.1, Seed: 1})

	// Tree invariants: parents precede children, depth is consistent,
	// heads are children of the root.
	for i := 1; i < len(g.Parent); i++ {
		p := g.Parent[i]
		if p < 0 || p >= int32(i) {
			t.Fatalf("AS %d has parent %d outside [0,%d)", i, p, i)
		}
		if g.Depth[i] != g.Depth[p]+1 {
			t.Fatalf("AS %d depth %d, parent depth %d", i, g.Depth[i], g.Depth[p])
		}
		h := g.Head[i]
		if g.Parent[h] != 0 {
			t.Fatalf("AS %d head %d is not a child of the root", i, h)
		}
		if p != 0 && g.Head[p] != h {
			t.Fatalf("AS %d head %d disagrees with parent's head %d", i, h, g.Head[p])
		}
	}

	// Stubs are leaves and must dominate (power-law graphs are mostly
	// degree-1); the tail must be heavy — a hub far above any
	// exponential graph's max degree.
	hist := g.DegreeHistogram()
	if stubs := g.Stubs(); stubs <= len(g.Parent)/2 {
		t.Fatalf("stub ASes %d not a majority of %d", stubs, len(g.Parent))
	}
	maxDeg := 0
	for d := range hist {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 100 {
		t.Fatalf("max degree %d lacks a power-law hub", maxDeg)
	}
	if hist[1] < hist[2] || hist[2] < hist[3] {
		t.Fatalf("degree histogram not monotone at the head: %d, %d, %d", hist[1], hist[2], hist[3])
	}
}

func TestASGraphExponent(t *testing.T) {
	// The MLE exponent estimate should land near the configured target
	// and order correctly across targets (Fig. 7-style validation).
	est := func(gamma float64) float64 {
		g := GenerateASGraph(ASGraphParams{ASes: 20000, Gamma: gamma, Seed: 3})
		return g.EstimateGamma()
	}
	lo, hi := est(2.1), est(3.0)
	if math.Abs(lo-2.1) > 0.3 {
		t.Fatalf("estimated exponent %.3f too far from target 2.1", lo)
	}
	if math.Abs(hi-3.0) > 0.3 {
		t.Fatalf("estimated exponent %.3f too far from target 3.0", hi)
	}
	if lo >= hi {
		t.Fatalf("exponent estimates not ordered: gamma 2.1 -> %.3f, gamma 3.0 -> %.3f", lo, hi)
	}
}

func TestSpreadHosts(t *testing.T) {
	g := GenerateASGraph(ASGraphParams{ASes: 500, Gamma: 2.1, Seed: 2})
	hosts := g.SpreadHosts(10007)
	var total int32
	for as, c := range hosts {
		total += c
		if c > 0 && g.Transit(as) {
			t.Fatalf("transit AS %d assigned %d hosts", as, c)
		}
	}
	if int(total) != 10007 {
		t.Fatalf("spread %d hosts, want 10007", total)
	}
}

func TestPartitionSubtrees(t *testing.T) {
	g := GenerateASGraph(ASGraphParams{ASes: 2000, Gamma: 2.1, Seed: 5})
	hosts := g.SpreadHosts(20000)
	partOf, parts := g.PartitionSubtrees(8, hosts)
	if parts < 2 || parts > 8 {
		t.Fatalf("parts = %d", parts)
	}
	if partOf[0] != 0 {
		t.Fatalf("AS 0 on part %d, want 0", partOf[0])
	}
	for i := 1; i < len(partOf); i++ {
		if partOf[i] < 1 || partOf[i] >= int32(parts) {
			t.Fatalf("AS %d on part %d outside [1,%d)", i, partOf[i], parts)
		}
		// Subtrees are indivisible: the only cut edges are root links.
		if g.Parent[i] != 0 && partOf[i] != partOf[g.Parent[i]] {
			t.Fatalf("AS %d (part %d) split from parent %d (part %d)", i, partOf[i], g.Parent[i], partOf[g.Parent[i]])
		}
	}
	// Placement-independence: the partition is a pure function of the
	// graph and host spread.
	again, _ := g.PartitionSubtrees(8, hosts)
	for i := range partOf {
		if partOf[i] != again[i] {
			t.Fatalf("partition not deterministic at AS %d", i)
		}
	}
}

func TestBuildInternetSmall(t *testing.T) {
	p := DefaultInternetParams()
	p.Graph = ASGraphParams{ASes: 60, Gamma: 2.1, Seed: 11}
	p.Hosts = 240
	p.Servers = 3
	p.Parts = 4
	ss := des.NewSharded(1, 2)
	it := BuildInternet(ss, p)

	if len(it.HostAS) != 240 || len(it.Servers) != 3 || len(it.Routers) != 60 {
		t.Fatalf("counts: %d hosts, %d servers, %d routers", len(it.HostAS), len(it.Servers), len(it.Routers))
	}
	if got := it.Cluster.RouteKind(); got != "compressed" {
		t.Fatalf("the internet is a pure tree and should route compressed under auto, got %q", got)
	}
	for i := range it.HostAS {
		h := it.Host(i)
		if !it.IsHost(h) || it.IsRouter(h) {
			t.Fatalf("host %v misclassified", h)
		}
		if h.ID != it.HostID(i) || it.HostIndex(h.ID) != i || it.Cluster.Node(h.ID) != h || it.Host(i) != h {
			t.Fatalf("host %d is %v: ID, index and lookup disagree", i, h)
		}
		if up := h.Ports()[0].Peer().Node(); up != it.Routers[it.HostAS[i]] {
			t.Fatalf("host %v hangs off %v, want AS %d's router", h, up, it.HostAS[i])
		}
	}
	for _, s := range it.Servers {
		if !it.IsHost(s) {
			t.Fatalf("server %v not classified as host", s)
		}
	}
	for _, r := range it.Routers {
		if it.IsHost(r) || !it.IsRouter(r) {
			t.Fatalf("router %v misclassified", r)
		}
	}
	if !it.IsRouter(it.ServerGW) {
		t.Fatal("server gateway not classified as router")
	}
	// Every host reaches every server through the bottleneck head.
	for i := 0; i < 10; i++ {
		h := it.Host(i)
		hops := it.Cluster.PathHops(h.ID, it.Servers[0].ID)
		if hops < 3 {
			t.Fatalf("host %v -> server path has %d hops", h, hops)
		}
	}
	if it.Bottleneck == nil {
		t.Fatal("bottleneck link not resolved")
	}
}

// TestBuildInternetAllocsIndependentOfHosts pins the point of reserving
// hosts: on one AS graph, a build with a thousand times the hosts makes
// no more allocations — only larger ones (the reservation arrays, whose
// growth by doubling is the small constant).
func TestBuildInternetAllocsIndependentOfHosts(t *testing.T) {
	build := func(hosts int) float64 {
		p := DefaultInternetParams()
		p.Graph = ASGraphParams{ASes: 400, Gamma: 2.1, Seed: 11}
		p.Hosts = hosts
		p.Parts = 4
		return testing.AllocsPerRun(1, func() {
			it := BuildInternet(des.NewSharded(1, 2), p)
			if len(it.HostAS) != hosts || len(it.Cluster.Nodes()) != 400+1+p.Servers {
				t.Fatalf("built %d hosts and %d nodes", len(it.HostAS), len(it.Cluster.Nodes()))
			}
		})
	}
	small, large := build(1000), build(1000000)
	t.Logf("allocations per build: %.0f at 10³ hosts, %.0f at 10⁶", small, large)
	if large > small+64 {
		t.Fatalf("10⁶-host build made %.0f allocations, 10³-host build %.0f: hosts are being built, not reserved", large, small)
	}
}

func TestBuildInternetCompressedAuto(t *testing.T) {
	p := DefaultInternetParams()
	p.Graph = ASGraphParams{ASes: 5000, Gamma: 2.1, Seed: 11}
	p.Hosts = 2000
	p.Servers = 2
	p.Parts = 6
	ss := des.NewSharded(1, 3)
	it := BuildInternet(ss, p)
	if got := it.Cluster.RouteKind(); got != "compressed" {
		t.Fatalf("internet-scale pure tree should auto-compress, got %q", got)
	}
	n := int64(len(it.Cluster.Nodes()) + len(it.HostAS))
	if rb := it.Cluster.RouteBytes(); rb > 64*n {
		t.Fatalf("routing state %d bytes for %d addressable IDs exceeds 64 B each", rb, n)
	}
	// Spot-check reachability across parts in both directions.
	if hops := it.Cluster.PathHops(it.Host(0).ID, it.Servers[1].ID); hops < 3 {
		t.Fatalf("host -> server hops = %d", hops)
	}
	// The walk from the server materialises the far host when it asks
	// the host's own router for the last hop.
	last := it.HostID(len(it.HostAS) - 1)
	if it.Cluster.Node(last) != nil {
		t.Fatalf("host %d exists before anything reached it", last)
	}
	if hops := it.Cluster.PathHops(it.Servers[1].ID, last); hops < 3 {
		t.Fatalf("server -> host hops = %d", hops)
	}
	if id := it.HostID(0); !it.IsHost(it.Cluster.Node(id)) {
		t.Fatal("cluster-global lookup lost a host")
	}
	if got := it.Cluster.Node(last); got == nil || got.ID != last {
		t.Fatalf("cluster-global lookup of the walked-to host returned %v", got)
	}
}
