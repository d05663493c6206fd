// Package topology builds the simulation networks of the paper's
// evaluation: the string topology of the model-validation experiments
// (Sec. 8.2) and random trees whose hop-count and node-degree
// distributions roughly match the histograms of Fig. 7 (Sec. 8.3).
// It also provides the close/far/even attacker-placement policies of
// Sec. 8.4.1.
package topology

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
)

// LinkClass holds the bandwidth/delay of one class of links.
type LinkClass struct {
	Bandwidth float64 // bits/s
	Delay     float64 // seconds
}

// Params configures tree construction. The defaults mirror the
// paper's setup: five servers behind a 10 Mb/s bottleneck at the tree
// root; access and core links scaled so the bottleneck is the shared
// constraint.
type Params struct {
	// Leaves is the number of end hosts (clients + attackers).
	Leaves int
	// Servers is the size of the replicated server pool (N).
	Servers int

	// Bottleneck is the root link all server-bound traffic crosses.
	Bottleneck LinkClass
	// ServerLink attaches each server to the server-side gateway.
	ServerLink LinkClass
	// CoreLink connects interior routers.
	CoreLink LinkClass
	// LeafLink attaches end hosts to access routers.
	LeafLink LinkClass

	// HopDist gives the relative frequency of leaf hop counts
	// (distance in router hops from the tree root to the access
	// router, inclusive). Index 0 corresponds to MinDepth.
	HopDist []float64
	// MinDepth is the smallest access-router depth.
	MinDepth int
	// Reuse is the probability of walking into an existing child
	// router rather than creating a fresh one while placing a leaf's
	// access path; it controls interior node degree.
	Reuse float64
	// MaxChildren caps the number of child routers per interior
	// router (reuse is forced at the cap). Real routing trees have
	// small interior degrees — the paper's collateral-damage argument
	// ("a router with another two upstream routers") depends on it.
	MaxChildren int

	// Seed drives the generator; identical Params produce identical
	// topologies.
	Seed int64
}

// DefaultParams returns the Fig. 9-style configuration. The paper's
// exact capacities are OCR-mangled; the relative relations (server
// links fastest, one shared bottleneck, uniform access/core links)
// follow its description in Sec. 8.3.
func DefaultParams() Params {
	return Params{
		Leaves:     200,
		Servers:    5,
		Bottleneck: LinkClass{Bandwidth: 10e6, Delay: 0.010},
		ServerLink: LinkClass{Bandwidth: 100e6, Delay: 0.001},
		CoreLink:   LinkClass{Bandwidth: 20e6, Delay: 0.010},
		LeafLink:   LinkClass{Bandwidth: 10e6, Delay: 0.010},
		// A unimodal spread of access depths 1..8 peaked near 4-5,
		// echoing measured Internet trees (paper Fig. 7). The small
		// weight at depths 1-2 gives the "close attacker" placements
		// hosts that branch off right next to the victim's network.
		HopDist:     []float64{0.04, 0.08, 0.15, 0.22, 0.20, 0.15, 0.10, 0.06},
		MinDepth:    1,
		Reuse:       0.7,
		MaxChildren: 4,
		Seed:        1,
	}
}

// Tree is a constructed simulation topology.
type Tree struct {
	Net *netsim.Network
	// Root is the client-side head of the bottleneck link; the whole
	// client/attacker tree hangs off it.
	Root *netsim.Node
	// ServerGW is the server-side gateway behind the bottleneck.
	ServerGW *netsim.Node
	// Servers are the replicated server hosts (pool of N).
	Servers []*netsim.Node
	// Leaves are the end hosts, in creation order.
	Leaves []*netsim.Node
	// Routers are interior routers including Root and ServerGW.
	Routers []*netsim.Node
	// Bottleneck is the root link whose utilization the experiments
	// measure.
	Bottleneck *netsim.Link

	access map[netsim.NodeID]*netsim.Node // leaf -> access router
	depth  map[netsim.NodeID]int          // access router depth from Root
	hosts  map[netsim.NodeID]bool         // end hosts (leaves + servers)
}

// AccessRouter returns the first-hop router of an end host.
func (t *Tree) AccessRouter(leaf *netsim.Node) *netsim.Node { return t.access[leaf.ID] }

// IsHost reports whether a node is an end host (leaf or server), as
// opposed to a router. Access routers use this to decide that
// back-propagation has reached an attack host.
func (t *Tree) IsHost(n *netsim.Node) bool { return t.hosts[n.ID] }

// LeafHops returns the router-hop distance from a leaf host to the
// server pool gateway (leaf -> access router -> ... -> Root ->
// ServerGW), i.e. the attack-path length back-propagation must cover.
func (t *Tree) LeafHops(leaf *netsim.Node) int {
	return t.Net.PathHops(leaf.ID, t.ServerGW.ID)
}

// NewString builds the validation topology of Sec. 8.2: a chain of
// hops routers with the server pool on one end and a single end host
// (the attacker) on the other:
//
//	server(s) - gw - r1 - r2 - ... - r(hops) - host
//
// The attacker host is hops+1 router hops from the gateway.
func NewString(sim *des.Simulator, hops, servers int, link LinkClass) *Tree {
	if hops < 1 {
		panic("topology: string needs at least one router hop")
	}
	nw := netsim.New(sim)
	t := &Tree{
		Net:    nw,
		access: map[netsim.NodeID]*netsim.Node{},
		depth:  map[netsim.NodeID]int{},
		hosts:  map[netsim.NodeID]bool{},
	}
	t.ServerGW = nw.AddNode("gw")
	t.Routers = append(t.Routers, t.ServerGW)
	for i := 0; i < servers; i++ {
		s := nw.AddNode(fmt.Sprintf("server%d", i))
		nw.Connect(t.ServerGW, s, link.Bandwidth*10, link.Delay/10)
		t.Servers = append(t.Servers, s)
		t.hosts[s.ID] = true
	}
	prev := t.ServerGW
	for i := 0; i < hops; i++ {
		r := nw.AddNode(fmt.Sprintf("r%d", i))
		l := nw.Connect(prev, r, link.Bandwidth, link.Delay)
		if i == 0 {
			t.Bottleneck = l
			t.Root = r
		}
		t.Routers = append(t.Routers, r)
		prev = r
	}
	host := nw.AddNode("host")
	nw.Connect(prev, host, link.Bandwidth, link.Delay)
	t.Leaves = append(t.Leaves, host)
	t.hosts[host.ID] = true
	t.access[host.ID] = prev
	nw.ComputeRoutes()
	return t
}

// NewTree builds a random tree per Params. Construction places each
// leaf by sampling an access depth from HopDist and walking from the
// root, reusing an existing child router with probability Reuse and
// creating a new one otherwise; the leaf then hangs off the depth-d
// router. The realized hop-count and degree histograms are exposed via
// HopCountHistogram and DegreeHistogram for the Fig. 7 regeneration.
func NewTree(sim *des.Simulator, p Params) *Tree {
	nw := netsim.New(sim)
	t := growTree(nw, nw.AddNode, p)
	nw.ComputeRoutes()
	return t
}

// GrowTree builds a whole Params tree inside one part of a cluster —
// the building block of forest workloads, where each part hosts an
// independent tree and only deliberately added links (sinks, ring
// links) cross part boundaries. RNG draws, node order and link order
// are exactly those of a sequential NewTree; node IDs are offset by
// the cluster's node count at the call. The caller is responsible for
// route computation (Cluster.ComputeRoutes, after all parts and cross
// links exist).
func GrowTree(cl *netsim.Cluster, part int, p Params) *Tree {
	return growTree(cl.Part(part), func(name string) *netsim.Node { return cl.AddNode(part, name) }, p)
}

// growTree is the one tree generator. Nodes come from addNode, so a
// cluster part numbers them cluster-globally; links are all internal
// to the tree and go straight onto nw, which is also what
// Cluster.Connect does for same-part endpoints.
func growTree(nw *netsim.Network, addNode func(name string) *netsim.Node, p Params) *Tree {
	if p.Leaves < 1 || p.Servers < 1 {
		panic("topology: need at least one leaf and one server")
	}
	if len(p.HopDist) == 0 {
		panic("topology: empty hop distribution")
	}
	rng := des.NewRNG(p.Seed)
	t := &Tree{
		Net:    nw,
		access: map[netsim.NodeID]*netsim.Node{},
		depth:  map[netsim.NodeID]int{},
		hosts:  map[netsim.NodeID]bool{},
	}

	t.Root = addNode("root")
	t.ServerGW = addNode("server-gw")
	t.Bottleneck = nw.Connect(t.Root, t.ServerGW, p.Bottleneck.Bandwidth, p.Bottleneck.Delay)
	t.Routers = append(t.Routers, t.Root, t.ServerGW)
	t.depth[t.Root.ID] = 0

	for i := 0; i < p.Servers; i++ {
		s := addNode(fmt.Sprintf("server%d", i))
		nw.Connect(t.ServerGW, s, p.ServerLink.Bandwidth, p.ServerLink.Delay)
		t.Servers = append(t.Servers, s)
		t.hosts[s.ID] = true
	}

	// children[r] lists r's downstream interior routers.
	children := map[netsim.NodeID][]*netsim.Node{}
	total := 0.0
	for _, w := range p.HopDist {
		total += w
	}

	sampleDepth := func() int {
		x := rng.Float64() * total
		for i, w := range p.HopDist {
			x -= w
			if x < 0 {
				return p.MinDepth + i
			}
		}
		return p.MinDepth + len(p.HopDist) - 1
	}

	for i := 0; i < p.Leaves; i++ {
		d := sampleDepth()
		cur := t.Root
		for level := 1; level <= d; level++ {
			kids := children[cur.ID]
			atCap := p.MaxChildren > 0 && len(kids) >= p.MaxChildren
			if len(kids) > 0 && (atCap || rng.Float64() < p.Reuse) {
				cur = des.Pick(rng, kids)
				continue
			}
			r := addNode(fmt.Sprintf("r%d.%d", level, len(t.Routers)))
			nw.Connect(cur, r, p.CoreLink.Bandwidth, p.CoreLink.Delay)
			children[cur.ID] = append(children[cur.ID], r)
			t.Routers = append(t.Routers, r)
			t.depth[r.ID] = level
			cur = r
		}
		leaf := addNode(fmt.Sprintf("h%d", i))
		nw.Connect(cur, leaf, p.LeafLink.Bandwidth, p.LeafLink.Delay)
		t.Leaves = append(t.Leaves, leaf)
		t.hosts[leaf.ID] = true
		t.access[leaf.ID] = cur
	}
	return t
}

// HopCountHistogram returns frequency of leaf hop counts (distance
// from leaf to ServerGW), keyed by hop count — the left panel of
// Fig. 7.
func (t *Tree) HopCountHistogram() map[int]int {
	h := map[int]int{}
	for _, l := range t.Leaves {
		h[t.LeafHops(l)]++
	}
	return h
}

// DegreeHistogram returns frequency of router degrees — the right
// panel of Fig. 7. End hosts are excluded, matching "node degree" of
// the routing tree.
func (t *Tree) DegreeHistogram() map[int]int {
	h := map[int]int{}
	for _, r := range t.Routers {
		h[r.Degree()]++
	}
	return h
}

// HostWeightTable counts, for every router port on a leaf-to-server
// path, the number of end hosts whose traffic toward the servers
// enters through that port. It is keyed by (NodeID, port index)
// rather than port pointer — two small integers — so the table costs
// O(ports) flat slices instead of a pointer-keyed map, and any
// iteration a caller performs over it is index-ordered, never
// map-ordered.
type HostWeightTable struct {
	byNode [][]float64 // indexed by NodeID, then Port.Index
}

// At returns the host weight of a router port (0 when the port is on
// no leaf-to-server path).
func (t *HostWeightTable) At(pt *netsim.Port) float64 {
	id := int(pt.Node().ID)
	if id >= len(t.byNode) || pt.Index() >= len(t.byNode[id]) {
		return 0
	}
	return t.byNode[id][pt.Index()]
}

// add increments the weight of pt, growing rows lazily.
func (t *HostWeightTable) add(pt *netsim.Port) {
	id := int(pt.Node().ID)
	for id >= len(t.byNode) {
		t.byNode = append(t.byNode, nil)
	}
	if t.byNode[id] == nil {
		t.byNode[id] = make([]float64, pt.Node().Degree())
	}
	t.byNode[id][pt.Index()]++
}

// HostWeights returns the per-ingress-port host counts. Level-k-style
// weighted fair sharing (internal/pushback WeightedShares) uses it to
// approximate the per-host fairness plain Pushback lacks.
func (t *Tree) HostWeights() *HostWeightTable {
	w := &HostWeightTable{}
	for _, leaf := range t.Leaves {
		path := t.Net.Path(leaf.ID, t.ServerGW.ID)
		for i := 0; i+1 < len(path); i++ {
			// The port at path[i+1] facing path[i] is the ingress this
			// leaf's server-bound traffic uses.
			in := path[i+1].PortTo(path[i])
			if in != nil {
				w.add(in)
			}
		}
	}
	return w
}

// PartitionAS assigns every router to an autonomous system at ISP
// granularity: the victim's network (Root + ServerGW) is AS 0, and
// each level-1 subtree — everything behind one of Root's child
// routers — is its own AS. Hierarchical deployment studies
// (core.Defense.DeployPerAS) and the paper's per-ISP incentive
// accounting ("it helps ISPs to accurately locate compromised hosts
// on their networks") use this map.
func (t *Tree) PartitionAS() map[netsim.NodeID]int {
	as := map[netsim.NodeID]int{
		t.Root.ID:     0,
		t.ServerGW.ID: 0,
	}
	next := 1
	// Root's children (excluding ServerGW) head the subtree ASes.
	headOf := map[netsim.NodeID]int{}
	for _, pt := range t.Root.Ports() {
		nb := pt.Peer().Node()
		if nb == t.ServerGW || t.IsHost(nb) {
			continue
		}
		headOf[nb.ID] = next
		next++
	}
	for _, r := range t.Routers {
		if _, ok := as[r.ID]; ok {
			continue
		}
		// The level-1 ancestor is the node right after Root on the
		// path from Root to r.
		path := t.Net.Path(t.Root.ID, r.ID)
		if len(path) >= 2 {
			if id, ok := headOf[path[1].ID]; ok {
				as[r.ID] = id
				continue
			}
		}
		as[r.ID] = 0
	}
	return as
}

// Placement selects which leaves are attack hosts (Sec. 8.4.1).
type Placement int

const (
	// Even places attackers uniformly at random over all leaves.
	Even Placement = iota
	// Close places attackers on the leaves nearest the servers.
	Close
	// Far places attackers on the leaves farthest from the servers.
	Far
)

func (p Placement) String() string {
	switch p {
	case Even:
		return "even"
	case Close:
		return "close"
	case Far:
		return "far"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// PlaceAttackers partitions leaves into attackers and clients. It
// returns nAttackers attack hosts chosen per the policy; the remaining
// leaves are the legitimate clients. A deterministic RNG seed makes
// Even placement reproducible.
func (t *Tree) PlaceAttackers(n int, policy Placement, seed int64) (attackers, clients []*netsim.Node) {
	if n < 0 || n > len(t.Leaves) {
		panic(fmt.Sprintf("topology: cannot place %d attackers among %d leaves", n, len(t.Leaves)))
	}
	leaves := make([]*netsim.Node, len(t.Leaves))
	copy(leaves, t.Leaves)
	switch policy {
	case Close, Far:
		sort.SliceStable(leaves, func(i, j int) bool {
			hi, hj := t.LeafHops(leaves[i]), t.LeafHops(leaves[j])
			if hi != hj {
				if policy == Close {
					return hi < hj
				}
				return hi > hj
			}
			return leaves[i].ID < leaves[j].ID
		})
	case Even:
		rng := des.NewRNG(seed)
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	default:
		panic("topology: unknown placement")
	}
	return leaves[:n], leaves[n:]
}
