package netsim

// Route-table representations. A Network (or Cluster) computes static
// shortest-path routes once, after the topology is final; the result is
// a single RouteTable shared by every node. Two implementations exist:
//
//   - denseTable: one next-hop row per node, indexed by destination ID.
//     O(N²) pointers and O(N²) build time. RouteAuto uses it only on
//     graphs with chords; it is also the reference the route oracle
//     tests and the benchmark's dense rows compare against.
//
//   - treeRoutes: a struct-of-arrays Euler-tour-interval labeling for
//     tree (forest) topologies. Each node carries a preorder interval
//     [in, out]; the next hop toward dst is the child whose interval
//     nests dst's, or the parent port when dst lies outside the node's
//     own interval. O(1) lookup (binary search over a node's children),
//     O(N) total memory — ~30 bytes/node instead of 8N bytes/node.
//     It exists only for forests.
//
// On a forest, equality with the dense table is automatic: paths are
// unique, so there is nothing to tie-break. The topology's shape alone
// picks the table.
type RouteTable interface {
	// NextHop returns n's egress port toward dst, or nil when dst is n
	// itself or unreachable.
	NextHop(n *Node, dst NodeID) *Port
	// RouteBytes estimates the table's memory footprint.
	RouteBytes() int64
	// Kind names the representation ("dense" or "compressed").
	Kind() string
}

// RouteMode selects the route-table representation ComputeRoutes
// builds.
type RouteMode int

const (
	// RouteAuto picks the compressed table on a pure forest (provably
	// identical to dense, paths being unique) and the dense table when
	// the graph has chords.
	RouteAuto RouteMode = iota
	// RouteDense forces the dense per-node rows.
	RouteDense
	// RouteCompressed forces the Euler-interval table. It is for
	// forests only: ComputeRoutes panics on a graph with chords.
	RouteCompressed
)

// portFar abstracts "the far side of this port": peer for intra-network
// links, Far for clusters whose cut edges have no local peer.
type portFar func(pt *Port) *Port

func peerOf(pt *Port) *Port { return pt.peer }
func farOf(pt *Port) *Port  { return pt.Far() }

// buildRoutes constructs the route table for the given nodes under the
// requested mode. bound is the exclusive upper bound on NodeIDs (maxID+1).
func buildRoutes(mode RouteMode, nodes []*Node, bound int, far portFar) RouteTable {
	if mode == RouteDense {
		return buildDense(nodes, bound, far)
	}
	t, pure := buildTree(nodes, bound, far)
	if pure {
		return t
	}
	if mode == RouteCompressed {
		panic("netsim: RouteCompressed needs a forest, but the graph has chords")
	}
	return buildDense(nodes, bound, far)
}

// denseTable is the per-node-row representation: rows[src][dst] is src's
// next hop toward dst. Rows exist only for live IDs.
type denseTable struct {
	rows [][]*Port
}

// NextHop returns the precomputed next hop toward dst.
//
//hbplint:hotpath dense route lookup; every forwarded packet on a chorded topology resolves its next hop here
func (t *denseTable) NextHop(n *Node, dst NodeID) *Port {
	if dst < 0 || int(dst) >= len(t.rows) {
		return nil
	}
	return t.rows[n.ID][dst]
}

// RouteBytes estimates the table's memory footprint.
func (t *denseTable) RouteBytes() int64 {
	total := int64(24 + 24*len(t.rows))
	for _, row := range t.rows {
		total += int64(8 * len(row))
	}
	return total
}

// Kind names the representation.
func (t *denseTable) Kind() string { return "dense" }

// buildDense runs the classic per-destination BFS (hop count; ties
// broken by discovery order, which follows node-creation and
// port-attachment order).
func buildDense(nodes []*Node, bound int, far portFar) *denseTable {
	t := &denseTable{rows: make([][]*Port, bound)}
	for _, n := range nodes {
		t.rows[n.ID] = make([]*Port, bound)
	}
	queue := make([]*Node, 0, len(nodes))
	visited := make([]bool, bound)
	for _, dst := range nodes {
		for i := range visited {
			visited[i] = false
		}
		queue = append(queue[:0], dst)
		visited[dst.ID] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, pt := range cur.ports {
				back := far(pt) // nb's egress port toward cur
				if back == nil {
					continue
				}
				nb := back.node
				if visited[nb.ID] {
					continue
				}
				visited[nb.ID] = true
				t.rows[nb.ID][dst.ID] = back
				queue = append(queue, nb)
			}
		}
	}
	return t
}

// treeRoutes is the compressed representation: Euler-tour (preorder)
// intervals over a BFS spanning forest, struct-of-arrays, all indexed
// by NodeID.
type treeRoutes struct {
	in, out []int32 // preorder interval of each node's subtree
	comp    []int32 // connected component; -1 marks an ID hole
	parent  []*Port // node's egress toward its tree parent (nil at roots)

	// Children of node n occupy childPort[childOff[n]:childOff[n+1]],
	// in port-attachment order; childIn holds each child's interval
	// start. Preorder visits children in port order, so childIn is
	// ascending and the owning child resolves with one binary search.
	childIn   []int32
	childPort []*Port
	childOff  []int32
}

// NextHop resolves the next hop from the interval labels: outside the
// node's own interval means "toward the parent"; inside means "toward
// the child whose interval nests dst".
//
//hbplint:hotpath compressed route lookup; every forwarded packet on a tree or forest resolves its next hop here
func (t *treeRoutes) NextHop(n *Node, dst NodeID) *Port {
	if dst < 0 || int(dst) >= len(t.in) || dst == n.ID {
		return nil
	}
	s := n.ID
	if t.comp[dst] < 0 || t.comp[dst] != t.comp[s] {
		return nil
	}
	di := t.in[dst]
	if di < t.in[s] || di > t.out[s] {
		return t.parent[s]
	}
	// dst is strictly inside s's subtree: find the greatest child
	// interval start <= di. Children tile (in[s], out[s]], so that
	// child's interval contains di.
	lo, hi := t.childOff[s], t.childOff[s+1]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.childIn[mid] <= di {
			lo = mid
		} else {
			hi = mid
		}
	}
	return t.childPort[lo]
}

// RouteBytes estimates the table's memory footprint.
func (t *treeRoutes) RouteBytes() int64 {
	return int64(4*(len(t.in)+len(t.out)+len(t.comp)+len(t.childIn)+len(t.childOff)) +
		8*(len(t.parent)+len(t.childPort)))
}

// Kind names the representation.
func (t *treeRoutes) Kind() string { return "compressed" }

// buildTree constructs the Euler-interval table over a BFS spanning
// forest (lowest-creation-order component roots, port order — the same
// discovery order as the dense BFS). pure reports whether the topology
// had no edges beyond the forest; when it did, the table is wrong for
// the pairs whose shortest path takes a chord, and callers must build
// the dense table instead.
func buildTree(nodes []*Node, bound int, far portFar) (t *treeRoutes, pure bool) {
	t = &treeRoutes{
		in:       make([]int32, bound),
		out:      make([]int32, bound),
		comp:     make([]int32, bound),
		parent:   make([]*Port, bound),
		childOff: make([]int32, bound+1),
	}
	for i := range t.comp {
		t.comp[i] = -1
	}

	// Pass 1: BFS spanning forest → parent ports, components, and the
	// edge census deciding purity.
	var comps int32
	var portSightings, treeEdges int
	queue := make([]*Node, 0, len(nodes))
	for _, root := range nodes {
		if t.comp[root.ID] >= 0 {
			continue
		}
		t.comp[root.ID] = comps
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, pt := range cur.ports {
				back := far(pt) // nb's egress port toward cur
				if back == nil {
					continue
				}
				portSightings++
				nb := back.node
				if t.comp[nb.ID] >= 0 {
					continue
				}
				t.comp[nb.ID] = comps
				t.parent[nb.ID] = back
				treeEdges++
				queue = append(queue, nb)
			}
		}
		comps++
	}
	pure = portSightings == 2*treeEdges

	// Pass 2: children in port order. counts doubles as a cursor after
	// the prefix sum.
	counts := make([]int32, bound)
	for _, n := range nodes {
		for _, pt := range n.ports {
			back := far(pt)
			if back != nil && t.parent[back.node.ID] == back {
				counts[n.ID]++
			}
		}
	}
	var total int32
	for id := 0; id < bound; id++ {
		t.childOff[id] = total
		total += counts[id]
	}
	t.childOff[bound] = total
	t.childPort = make([]*Port, total)
	copy(counts, t.childOff[:bound])
	for _, n := range nodes {
		for _, pt := range n.ports {
			back := far(pt)
			if back != nil && t.parent[back.node.ID] == back {
				t.childPort[counts[n.ID]] = pt
				counts[n.ID]++
			}
		}
	}

	// Pass 3: iterative preorder DFS per component root; out = in +
	// subtree size - 1, sizes accumulated in reverse preorder.
	var counter int32
	order := make([]*Node, 0, len(nodes))
	stack := make([]*Node, 0, 64)
	for _, root := range nodes {
		if t.parent[root.ID] != nil {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			t.in[cur.ID] = counter
			counter++
			order = append(order, cur)
			lo, hi := t.childOff[cur.ID], t.childOff[cur.ID+1]
			for i := hi - 1; i >= lo; i-- {
				stack = append(stack, far(t.childPort[i]).node)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		sz := int32(1)
		for j := t.childOff[n.ID]; j < t.childOff[n.ID+1]; j++ {
			sz += t.out[far(t.childPort[j]).node.ID] // out holds sizes here
		}
		t.out[n.ID] = sz
	}
	for _, n := range order {
		t.out[n.ID] = t.in[n.ID] + t.out[n.ID] - 1
	}

	t.childIn = make([]int32, total)
	for i, pt := range t.childPort {
		t.childIn[i] = t.in[far(pt).node.ID]
	}
	return t, pure
}
