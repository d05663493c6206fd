package netsim

import (
	"fmt"

	"repro/internal/des"
)

// Cluster is a network partitioned into parts, one Network per part,
// driven by a sharded simulator. Parts are a property of the model —
// which nodes belong together — while the placement decides only which
// shard executes each part. Links inside a part are ordinary duplex
// links; links whose endpoints live in different parts become a pair
// of unidirectional half links whose traffic crosses through
// des.Channels with the link's propagation delay as lookahead. Cut
// edges are channel-routed at every placement — even when both parts
// share a shard — which is what makes a run's event schedule identical
// for every shard count.
//
// Node IDs are allocated cluster-globally in creation order, so a
// packet's Src/Dst addressing and the routing tables span the whole
// cluster exactly as they span a single Network. End hosts that may
// never see a packet can be reserved instead of created (AddLeaves):
// their IDs follow the last created node and each becomes a real node
// on first use.
//
// Build rules for determinism: create nodes and links in a fixed order
// that does not depend on the placement, and give every cross-part
// link a strictly positive delay (it becomes the conservative
// lookahead bounding how far shards run ahead).
type Cluster struct {
	Sim *des.ShardedSimulator

	// Routing selects the route-table representation ComputeRoutes
	// builds (see RouteMode); the zero value, RouteAuto, compresses
	// pure forests and keeps the dense table for chorded graphs; only
	// tests and benchmarks force a mode.
	Routing RouteMode

	parts   []*Network
	shardOf []int
	// pools holds one packet pool per shard, shared by every part that
	// shard executes.
	pools []*packetPool
	nodes []*Node // the eager nodes, in cluster-global ID order
	rt    RouteTable
	// leaves is the directory of reserved endpoint IDs, shared with
	// every part; nil until the first AddLeaves.
	leaves *leafDir
}

// NewCluster returns a cluster with one empty part network per entry
// of place; place[i] names the shard that executes part i. A part's
// Network binds to that shard's Simulator and packet pool, so model
// components built on the part schedule on the right shard
// automatically. The cluster installs its pool top-up as ss's barrier
// hook.
func NewCluster(ss *des.ShardedSimulator, place []int) *Cluster {
	if len(place) == 0 {
		panic("netsim: cluster needs at least one part")
	}
	cl := &Cluster{Sim: ss, shardOf: make([]int, len(place)), pools: make([]*packetPool, ss.Shards())}
	for i := range cl.pools {
		cl.pools[i] = &packetPool{}
	}
	for part, shard := range place {
		if shard < 0 || shard >= ss.Shards() {
			panic(fmt.Sprintf("netsim: part %d placed on shard %d of %d", part, shard, ss.Shards()))
		}
		cl.shardOf[part] = shard
		nw := New(ss.Shard(shard))
		nw.pool = cl.pools[shard]
		cl.parts = append(cl.parts, nw)
	}
	ss.SetBarrier(cl.topUpPools)
	return cl
}

// topUpPools is the cluster's window-barrier hook. A packet is freed
// into the pool of the shard where it ends, and on a cluster whose
// traffic flows one way that is not the shard that emitted it: without
// help the emitting pools would allocate afresh every window while the
// terminating ones hoard. So each pool holding fewer free packets than
// it handed out in the last window is topped up to that demand, taking
// packets, in shard order, only from pools that hold more than their
// own last-window demand. Pools hold only zeroed packets, so which
// object serves an emission cannot move a result; with one shard there
// is no other pool and the rule does nothing.
func (cl *Cluster) topUpPools() {
	for _, p := range cl.pools {
		want := min(p.handed, maxPooledPackets)
		for _, donor := range cl.pools {
			short := want - len(p.free)
			if short <= 0 {
				break
			}
			spare := len(donor.free) - donor.handed
			if spare <= 0 {
				continue
			}
			cut := len(donor.free) - min(short, spare)
			p.free = append(p.free, donor.free[cut:]...)
			donor.free = donor.free[:cut]
		}
	}
	for _, p := range cl.pools {
		p.handed = 0
	}
}

// Parts returns the number of parts.
func (cl *Cluster) Parts() int { return len(cl.parts) }

// Part returns part i's Network.
func (cl *Cluster) Part(i int) *Network { return cl.parts[i] }

// ShardOf returns the shard executing part i.
func (cl *Cluster) ShardOf(i int) int { return cl.shardOf[i] }

// AddNode creates a node on the given part with a cluster-global ID.
// It panics once AddLeaves has reserved the IDs that follow.
func (cl *Cluster) AddNode(part int, name string) *Node {
	if cl.leaves != nil {
		panic("netsim: AddNode after AddLeaves: reserved endpoint IDs follow the last created node")
	}
	n := cl.parts[part].addNodeWithID(NodeID(len(cl.nodes)), name)
	cl.nodes = append(cl.nodes, n)
	return n
}

// Nodes returns every node created with AddNode, indexed by NodeID.
// Endpoints reserved with AddLeaves are not listed, materialised or
// not; a materialised one appears in its part's Nodes().
func (cl *Cluster) Nodes() []*Node { return cl.nodes }

// Node returns the node with the given cluster-global ID, or nil. A
// reserved endpoint ID resolves only once something has materialised
// the endpoint (its router's NextHop towards it does); the lookup reads
// the owning part's state, so it is for use while no shard is running.
func (cl *Cluster) Node(id NodeID) *Node {
	if id < 0 {
		return nil
	}
	if int(id) < len(cl.nodes) {
		return cl.nodes[id]
	}
	if owner, ok := cl.leaves.ownerOf(id); ok {
		return cl.nodes[owner].leafNode(id)
	}
	return nil
}

// partOf returns the part index owning n.
func (cl *Cluster) partOf(n *Node) int {
	for i, nw := range cl.parts {
		if nw == n.net {
			return i
		}
	}
	panic(fmt.Sprintf("netsim: node %v not in cluster", n))
}

// Connect joins two cluster nodes. Same-part endpoints get an ordinary
// duplex link. Endpoints on different parts get two unidirectional
// half links (one egress port each) whose traffic crosses through a
// pair of des.Channels created here in call order — the call order is
// therefore part of the model and must not depend on placement. Cross
// links require delay > 0; it becomes the channels' lookahead.
func (cl *Cluster) Connect(a, b *Node, bandwidth, delay float64) {
	pa, pb := cl.partOf(a), cl.partOf(b)
	if pa == pb {
		cl.parts[pa].Connect(a, b, bandwidth, delay)
		return
	}
	if a.PortTo(b) != nil {
		panic(fmt.Sprintf("netsim: duplicate link %v<->%v", a, b))
	}
	if bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	if delay <= 0 {
		panic("netsim: cross-part link needs positive delay (it is the conservative lookahead)")
	}
	mk := func(n *Node, nw *Network) *Port {
		l := &Link{Bandwidth: bandwidth, Delay: delay, net: nw}
		pt := &Port{node: n, link: l, q: newOutQueue(), index: len(n.ports)}
		l.a = pt
		n.ports = append(n.ports, pt)
		nw.links = append(nw.links, l)
		return pt
	}
	qa := mk(a, cl.parts[pa])
	qb := mk(b, cl.parts[pb])
	qa.far, qb.far = qb, qa
	qa.remote = cl.Sim.NewChannel(cl.shardOf[pa], cl.shardOf[pb], delay)
	qb.remote = cl.Sim.NewChannel(cl.shardOf[pb], cl.shardOf[pa], delay)
}

// ComputeRoutes builds one cluster-wide route table with shortest
// paths over the whole cluster (hop count; ties broken by discovery
// order, which follows node-creation and port-attachment order and is
// thus placement-independent) and shares it with every node. The
// representation follows cl.Routing. Call it instead of the per-part
// ComputeRoutes, after the topology is final. The table is read-only
// after this call, so shards on different cores share it safely.
// Reserved endpoints get no row: NextHop resolves them to their owner
// before it consults the table.
func (cl *Cluster) ComputeRoutes() {
	far := farOf
	if d := cl.leaves; d != nil {
		// A recompute must not walk into endpoints materialised since.
		far = func(pt *Port) *Port {
			if f := pt.Far(); f != nil && f.node.ID < d.min {
				return f
			}
			return nil
		}
	}
	cl.rt = buildRoutes(cl.Routing, cl.nodes, len(cl.nodes), far)
	for _, n := range cl.nodes {
		n.rt = cl.rt
	}
}

// RouteBytes estimates the memory held by the cluster-wide routing
// state: the route table over the eager nodes plus the directory and
// port slots of the reserved endpoints (0 before ComputeRoutes).
func (cl *Cluster) RouteBytes() int64 {
	if cl.rt == nil {
		return 0
	}
	return cl.rt.RouteBytes() + cl.leaves.bytes()
}

// RouteKind names the route-table representation in use ("dense" or
// "compressed"; empty before ComputeRoutes).
func (cl *Cluster) RouteKind() string {
	if cl.rt == nil {
		return ""
	}
	return cl.rt.Kind()
}

// PathHops returns the hop count from a to b across the cluster
// (0 for a==b, -1 if unreachable). Routes must be computed. A reserved
// endpoint is a fine destination — the last hop materialises it — but
// not a source until something has: there is no node to start from.
func (cl *Cluster) PathHops(a, b NodeID) int {
	if a == b {
		return 0
	}
	cur := cl.Node(a)
	hops := 0
	for cur != nil && cur.ID != b {
		next := cur.NextHop(b)
		if next == nil {
			return -1
		}
		cur = next.farNode()
		hops++
		// Loop guard: a path visits each eager node at most once, plus
		// an endpoint at either end.
		if hops > len(cl.nodes)+2 {
			return -1
		}
	}
	if cur == nil {
		return -1
	}
	return hops
}

// PacketsOutstanding sums the per-part leak gauges. A completed,
// drained run must read zero — cross-part ownership transfers charge a
// free on the source part and an allocation on the destination part,
// so the cluster-wide sum balances even for packets reclaimed
// mid-transfer.
func (cl *Cluster) PacketsOutstanding() int64 {
	var t int64
	for _, nw := range cl.parts {
		t += nw.PacketsOutstanding()
	}
	return t
}

// TotalQueueDrops sums drop-tail losses over every part.
func (cl *Cluster) TotalQueueDrops() int64 {
	var t int64
	for _, nw := range cl.parts {
		t += nw.TotalQueueDrops()
	}
	return t
}

// Drain tears down all in-transit packet state after a run, the
// cluster analogue of Network.Drain. Because parts placed on the same
// shard share that shard's event heap, packets are routed back to
// their owning part's pool through the port operand riding on every
// link event; packets still in cut-edge transit (buffered in a channel
// outbox or injected but unfired) first complete their ownership
// transfer to the destination part.
func (cl *Cluster) Drain() {
	cl.Sim.DrainPending(func(ev des.DrainedEvent) {
		if pt, ok := ev.A.(*Port); ok {
			pt.node.net.reclaimDrained(ev)
		}
	})
	for _, nw := range cl.parts {
		nw.flushPorts()
	}
}
