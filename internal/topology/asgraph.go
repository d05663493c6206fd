package topology

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
)

// ASGraphParams seeds the power-law AS-graph generator.
type ASGraphParams struct {
	// ASes is the number of autonomous systems.
	ASes int
	// Gamma is the target exponent of the power-law degree
	// distribution P(k) ~ k^-Gamma. Preferential attachment with
	// kernel (k + beta), beta = Gamma - 3, realizes it; measured
	// internet AS graphs sit near 2.1 (the generator's default).
	// Must be > 2 (beta > -1).
	Gamma float64
	// Seed drives the generator; identical params give identical
	// graphs.
	Seed int64
}

// ASGraph is a generated AS-level topology in struct-of-arrays form:
// a preferential-attachment tree (m = 1), so it is routable by the
// compressed Euler-interval table and costs O(ASes)
// to store regardless of scale. Leaf ASes are stubs (they host
// endpoints); interior ASes are transit.
type ASGraph struct {
	Params ASGraphParams
	// Parent[i] is the attachment target of AS i (Parent[0] = -1).
	Parent []int32
	// Degree[i] counts AS i's neighbors.
	Degree []int32
	// Depth[i] is the hop distance from AS 0.
	Depth []int32
	// Head[i] is the level-1 subtree (child of AS 0) containing AS i;
	// Head[0] = 0.
	Head []int32
}

// GenerateASGraph grows an AS tree by preferential attachment with
// kernel (degree + beta), beta = Gamma - 3: each new AS links to an
// existing AS chosen with probability proportional to (k + beta),
// which yields a degree distribution with exponent 3 + beta = Gamma.
// Negative beta (internet-like Gamma < 3) is realized by rejection
// sampling from the edge-endpoint ball; positive beta by mixing the
// ball with a uniform draw.
func GenerateASGraph(p ASGraphParams) *ASGraph {
	if p.ASes < 2 {
		panic("topology: AS graph needs at least 2 ASes")
	}
	if p.Gamma == 0 {
		p.Gamma = 2.1
	}
	if p.Gamma <= 2 {
		panic(fmt.Sprintf("topology: Gamma %.2f <= 2 is not realizable by linear preferential attachment", p.Gamma))
	}
	beta := p.Gamma - 3
	rng := des.NewRNG(p.Seed)

	n := p.ASes
	g := &ASGraph{
		Params: p,
		Parent: make([]int32, n),
		Degree: make([]int32, n),
		Depth:  make([]int32, n),
		Head:   make([]int32, n),
	}
	g.Parent[0] = -1
	// ball holds each AS once per incident edge: a uniform draw from
	// it is a degree-proportional draw.
	ball := make([]int32, 0, 2*n)
	for i := 1; i < n; i++ {
		var t int32
		switch {
		case i == 1:
			t = 0
		case beta < 0:
			// Rejection sampling: propose degree-proportionally, accept
			// with (k + beta)/k <= 1. Worst-case acceptance (degree-1
			// nodes) is 1 + beta > 0, so expected retries are bounded.
			for {
				t = ball[rng.Intn(len(ball))]
				k := float64(g.Degree[t])
				if rng.Float64() < (k+beta)/k {
					break
				}
			}
		case beta > 0:
			// Mixture: total kernel mass sum(k_j + beta) splits into the
			// ball's 2(i-1) and the uniform component beta*i.
			wBall := float64(2 * (i - 1))
			if rng.Float64()*(wBall+beta*float64(i)) < wBall {
				t = ball[rng.Intn(len(ball))]
			} else {
				t = int32(rng.Intn(i))
			}
		default:
			t = ball[rng.Intn(len(ball))]
		}
		g.Parent[i] = t
		g.Degree[i]++
		g.Degree[t]++
		g.Depth[i] = g.Depth[t] + 1
		if t == 0 {
			g.Head[i] = int32(i)
		} else {
			g.Head[i] = g.Head[t]
		}
		ball = append(ball, int32(i), t)
	}
	return g
}

// Transit reports whether AS i is a transit AS (interior; AS 0 is
// always transit). Stub ASes — the leaves — host endpoints.
func (g *ASGraph) Transit(i int) bool { return i == 0 || g.Degree[i] > 1 }

// Stubs counts stub ASes.
func (g *ASGraph) Stubs() int {
	s := 0
	for i := range g.Parent {
		if !g.Transit(i) {
			s++
		}
	}
	return s
}

// DegreeHistogram returns degree → AS count, the paper-Fig.7-style
// validation view of the generated graph.
func (g *ASGraph) DegreeHistogram() map[int]int {
	h := map[int]int{}
	for _, d := range g.Degree {
		h[int(d)]++
	}
	return h
}

// estimateXmin is the tail cutoff for EstimateGamma. The
// continuous-approximation MLE is badly biased on discrete data at
// small degrees (it reads a pure zeta(3) sample as ~2.2); from
// degree 6 up the bias drops below a few percent, and both target
// exponents leave thousands of tail samples at 20k ASes.
const estimateXmin = 6

// EstimateGamma returns the Clauset-Shalizi-Newman tail estimate of
// the degree exponent: gamma^ = 1 + n_t / sum(ln(k_i/(x_min - 0.5)))
// over degrees k_i >= x_min. The generator validation test pins it
// near Params.Gamma.
func (g *ASGraph) EstimateGamma() float64 {
	var s float64
	n := 0
	for _, d := range g.Degree {
		if d < estimateXmin {
			continue
		}
		s += math.Log(float64(d) / (estimateXmin - 0.5))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/s
}

// SpreadHosts distributes total end hosts evenly over the stub ASes
// (deterministically: earlier stubs absorb the remainder). Transit
// ASes host none — they only carry traffic.
func (g *ASGraph) SpreadHosts(total int) []int32 {
	counts := make([]int32, len(g.Parent))
	stubs := g.Stubs()
	if stubs == 0 || total <= 0 {
		return counts
	}
	base, rem := total/stubs, total%stubs
	for i := range g.Parent {
		if g.Transit(i) {
			continue
		}
		counts[i] = int32(base)
		if rem > 0 {
			counts[i]++
			rem--
		}
	}
	return counts
}

// PartitionSubtrees groups the level-1 subtrees into at most maxParts
// cluster parts: part 0 is the victim network (AS 0 plus the server
// pool), and whole subtrees — indivisible, so every cut edge is a
// root link — are packed onto parts 1..parts-1 by
// longest-processing-time greedy over their host counts. The result
// depends only on the graph and host spread, never on shard count or
// placement.
func (g *ASGraph) PartitionSubtrees(maxParts int, hosts []int32) (partOf []int32, parts int) {
	partOf = make([]int32, len(g.Parent))
	heads := []int32{}
	weight := map[int32]float64{}
	for i := 1; i < len(g.Parent); i++ {
		h := g.Head[i]
		if _, ok := weight[h]; !ok {
			heads = append(heads, h)
		}
		weight[h] += float64(hosts[i]) + 0.5
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	parts = maxParts
	if parts > len(heads)+1 {
		parts = len(heads) + 1
	}
	if parts < 1 {
		parts = 1
	}
	if parts == 1 {
		return partOf, 1
	}
	order := append([]int32(nil), heads...)
	sort.SliceStable(order, func(i, j int) bool { return weight[order[i]] > weight[order[j]] })
	load := make([]float64, parts)
	// Part 0 carries the victim pool and the bottleneck's event load;
	// leave it out of the greedy packing.
	headPart := map[int32]int32{}
	for _, h := range order {
		best := 1
		for s := 2; s < parts; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		headPart[h] = int32(best)
		load[best] += weight[h]
	}
	for i := 1; i < len(g.Parent); i++ {
		partOf[i] = headPart[g.Head[i]]
	}
	return partOf, parts
}

// InternetParams sizes the materialized internet-scale topology.
type InternetParams struct {
	Graph ASGraphParams
	// Hosts is the total number of end hosts, spread over stub ASes.
	Hosts int
	// Servers is the size of the victim's replicated server pool.
	Servers int
	// Parts is the cluster decomposition target (1 = everything in
	// one part; the single-network build).
	Parts int

	// Bottleneck is the victim ingress all server-bound traffic
	// crosses; ServerLink attaches pool servers to the gateway;
	// CoreLink joins AS routers (its delay is the cross-part
	// lookahead); LeafLink attaches hosts to their AS router.
	Bottleneck LinkClass
	ServerLink LinkClass
	CoreLink   LinkClass
	LeafLink   LinkClass
}

// DefaultInternetParams mirrors the Fig. 9 link classes at AS scale.
func DefaultInternetParams() InternetParams {
	return InternetParams{
		Graph:      ASGraphParams{ASes: 10000, Gamma: 2.1, Seed: 1},
		Hosts:      100000,
		Servers:    5,
		Parts:      1,
		Bottleneck: LinkClass{Bandwidth: 10e6, Delay: 0.010},
		ServerLink: LinkClass{Bandwidth: 100e6, Delay: 0.001},
		CoreLink:   LinkClass{Bandwidth: 50e6, Delay: 0.010},
		LeafLink:   LinkClass{Bandwidth: 10e6, Delay: 0.010},
	}
}

// Internet is a materialized internet-scale topology on a Cluster.
type Internet struct {
	Params InternetParams
	Graph  *ASGraph

	Cluster *netsim.Cluster
	// Routers holds the per-AS router, indexed by AS (== NodeID).
	Routers []*netsim.Node
	// Root is AS 0's router — the client-side head of the bottleneck.
	Root     *netsim.Node
	ServerGW *netsim.Node
	Servers  []*netsim.Node
	// HostAS names each end host's stub AS, in host-index order; its
	// length is the host count. Hosts are reserved on the cluster, not
	// built (netsim.Cluster.AddLeaves): host i is the ID HostID(i) until
	// a packet — or Host(i) — makes it a node.
	HostAS []int32
	// PartOf is the per-AS part assignment (hosts follow their AS;
	// the victim pool is part 0).
	PartOf []int32
	Parts  int

	Bottleneck *netsim.Link

	hostMin   netsim.NodeID
	serverSet map[netsim.NodeID]bool
}

// BuildInternet materializes the AS graph and victim pool onto a
// cluster over the given sharded simulator and reserves the end hosts
// behind their AS routers. Creation order — AS routers in AS order,
// then the victim pool, then the host IDs grouped by stub AS — fixes
// cluster-global IDs and channel creation order independent of shard
// count, keeping sharded runs fingerprint-equal at every width. Parts
// are placed on shards by LPT greedy over host counts.
func BuildInternet(ss *des.ShardedSimulator, p InternetParams) *Internet {
	if p.Servers < 1 {
		panic("topology: internet build needs at least one server")
	}
	g := GenerateASGraph(p.Graph)
	hosts := g.SpreadHosts(p.Hosts)
	if p.Parts < 1 {
		p.Parts = 1
	}
	partOf, parts := g.PartitionSubtrees(p.Parts, hosts)

	// Place parts on shards: LPT greedy over per-part host weight.
	partWeight := make([]float64, parts)
	partWeight[0] = float64(p.Servers)
	for as, c := range hosts {
		partWeight[partOf[as]] += float64(c) + 0.5
	}
	place := make([]int, parts)
	order := make([]int, parts)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return partWeight[order[i]] > partWeight[order[j]] })
	load := make([]float64, ss.Shards())
	for _, part := range order {
		best := 0
		for s := 1; s < len(load); s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		place[part] = best
		load[best] += partWeight[part]
	}

	cl := netsim.NewCluster(ss, place)
	it := &Internet{
		Params: p, Graph: g, Cluster: cl,
		Routers: make([]*netsim.Node, p.Graph.ASes),
		HostAS:  make([]int32, 0, p.Hosts),
		PartOf:  partOf, Parts: parts,
		serverSet: make(map[netsim.NodeID]bool, p.Servers),
	}
	for i := 0; i < p.Graph.ASes; i++ {
		it.Routers[i] = cl.AddNode(int(partOf[i]), fmt.Sprintf("as%d", i))
	}
	it.Root = it.Routers[0]
	it.ServerGW = cl.AddNode(0, "gw")
	for j := 0; j < p.Servers; j++ {
		s := cl.AddNode(0, fmt.Sprintf("s%d", j))
		it.Servers = append(it.Servers, s)
		it.serverSet[s.ID] = true
	}
	for i := 1; i < p.Graph.ASes; i++ {
		cl.Connect(it.Routers[g.Parent[i]], it.Routers[i], p.CoreLink.Bandwidth, p.CoreLink.Delay)
	}
	cl.Connect(it.Root, it.ServerGW, p.Bottleneck.Bandwidth, p.Bottleneck.Delay)
	for _, s := range it.Servers {
		cl.Connect(it.ServerGW, s, p.ServerLink.Bandwidth, p.ServerLink.Delay)
	}
	// Hosts last, so their IDs are one contiguous range — IsHost is a
	// single comparison, no per-host map at 10^6 scale — and reserved,
	// not built: an endpoint becomes a node, an access link and two
	// ports only when a packet first needs its router's port towards it.
	it.hostMin = netsim.NodeID(p.Graph.ASes + 1 + p.Servers)
	for as := 0; as < p.Graph.ASes; as++ {
		if hosts[as] == 0 {
			continue
		}
		cl.AddLeaves(it.Routers[as], int(hosts[as]), p.LeafLink.Bandwidth, p.LeafLink.Delay)
		for k := int32(0); k < hosts[as]; k++ {
			it.HostAS = append(it.HostAS, int32(as))
		}
	}
	cl.ComputeRoutes()
	it.Bottleneck = it.Root.PortTo(it.ServerGW).Link()
	return it
}

// IsHost classifies end hosts (leaf hosts and pool servers) versus
// routers, the shape core.Defense expects.
func (it *Internet) IsHost(n *netsim.Node) bool {
	return n.ID >= it.hostMin || it.serverSet[n.ID]
}

// HostIndex returns the index into HostAS of the host with the given
// ID, or -1 if the ID does not name an end host. Hosts occupy one
// contiguous ID range, so this is arithmetic — no per-host map at 10^6
// scale.
func (it *Internet) HostIndex(id netsim.NodeID) int {
	i := int(id - it.hostMin)
	if i < 0 || i >= len(it.HostAS) {
		return -1
	}
	return i
}

// HostID is the inverse of HostIndex: the node ID of host i.
func (it *Internet) HostID(i int) netsim.NodeID { return it.hostMin + netsim.NodeID(i) }

// Host returns host i as a node, materialising the endpoint if no
// packet has yet. It mutates the host's part network, so it is for
// tests and tools inspecting a topology, not for code running beside
// the shards.
func (it *Internet) Host(i int) *netsim.Node {
	return it.Routers[it.HostAS[i]].NextHop(it.HostID(i)).Far().Node()
}

// IsRouter reports whether a node is an AS router or the server
// gateway — the topology-derived deployment set, safe to consult from
// any part (core.Defense.RemoteDeployed).
func (it *Internet) IsRouter(n *netsim.Node) bool {
	return int(n.ID) < len(it.Routers) || n == it.ServerGW
}
