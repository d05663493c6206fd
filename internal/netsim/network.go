package netsim

import (
	"fmt"

	"repro/internal/des"
)

// Network owns nodes and links and computes static routes.
type Network struct {
	Sim *des.Simulator

	// Routing selects the route-table representation ComputeRoutes
	// builds (see RouteMode). The zero value, RouteAuto, compresses
	// pure forests and keeps the dense table for chorded graphs; only
	// tests and benchmarks force a mode.
	Routing RouteMode

	nodes []*Node
	links []*Link
	// idIndex maps NodeID → node for the dense ID prefix: AddNode
	// numbers standalone networks 0..n-1 and every node lands here. A
	// network that is one part of a Cluster receives cluster-global IDs
	// that skip ahead; those land in idSpill instead of growing the
	// slice with nil holes (which at internet scale wasted
	// O(cluster size) pointers per part).
	idIndex []*Node
	idSpill map[NodeID]*Node
	// maxID is the largest ID ever added; maxID+1 bounds route-table
	// indexing.
	maxID NodeID

	// rt is the route table shared by every node, built by
	// ComputeRoutes.
	rt RouteTable
	// leaves is the owning Cluster's directory of reserved endpoint IDs;
	// nil on a standalone network and on a cluster that reserved none.
	leaves *leafDir

	// pool is where this network's packets come from and go back to:
	// its own on a standalone network, its shard's on a Cluster part.
	pool *packetPool
	// pktAllocs / pktFrees count this network's hand-outs and returns
	// (and a cut crossing's ownership transfer); their difference is
	// the outstanding-packet gauge the leak-checked run teardown
	// asserts back to zero (see PacketsOutstanding).
	pktAllocs int64
	pktFrees  int64
}

// packetPool is a free list of recycled packets. No pool is global,
// so concurrent simulations in separate goroutines — the parallel
// experiment runner — never share packet memory; within one Cluster
// every part a shard executes shares that shard's pool, and the
// window barrier moves free packets between shards
// (Cluster.topUpPools).
type packetPool struct {
	free []*Packet
	// handed counts hand-outs since the last barrier top-up: the pool's
	// demand over the last window. Nothing resets it on a standalone
	// network, which never reads it.
	handed int
	// The pad rounds the pool up to 128 bytes, a size class the Go
	// allocator lays out on 128-byte boundaries, so every pool owns a
	// whole pair of 64-byte cache lines. Two shards write their pools
	// on every hand-out and return, from different cores: unpadded,
	// the two 32-byte pools landed on one line or one prefetch pair
	// whenever the allocator happened to place them side by side, and
	// a sharded run's time then depended on where that was.
	_ [128 - 32]byte
}

// maxPooledPackets bounds a free list; beyond it released packets are
// left to the garbage collector. The cap only matters for workloads
// that allocate packets outside the pool (literals in tests) faster
// than they reuse them.
const maxPooledPackets = 1 << 16

// NewPacket returns a zeroed packet, reusing a previously freed one
// when available. In steady state (every pool packet reaching a
// terminal point) this makes per-packet allocation cost disappear.
func (nw *Network) NewPacket() *Packet {
	nw.pktAllocs++
	pool := nw.pool
	pool.handed++
	if n := len(pool.free); n > 0 {
		p := pool.free[n-1]
		pool.free = pool.free[:n-1]
		p.freed = false
		return p
	}
	//hbplint:ignore hotalloc pool miss, taken only while the free list is empty: on a standalone network during warm-up, on a cluster also when a window hands out more packets than the barrier top-up left in the shard's pool (the previous window's demand); TestAllocsPerPacketHop and TestClusterPoolRefillsAcrossShards pin 0 fresh packets once demand is steady.
	return &Packet{}
}

// PacketsOutstanding is the number of pool packets handed out and not
// yet recycled — the run-teardown leak gauge. After a run has been
// fully torn down (traffic stopped, Network.Drain called) it must read
// zero; a positive residue means some handler or agent strands packets
// past their terminal point. Packets allocated as literals (&Packet{}
// in tests) are charged on free but not on allocation, so the gauge
// can go negative in literal-heavy tests; the leak check only applies
// to scenarios whose traffic uses the pool, which is all of them.
func (nw *Network) PacketsOutstanding() int64 { return nw.pktAllocs - nw.pktFrees }

// ClonePacket returns a shallow copy of p drawn from the pool.
// Payloads are shared. Use it when a hook or handler needs packet
// state to outlive its callback.
func (nw *Network) ClonePacket(p *Packet) *Packet {
	q := nw.NewPacket()
	*q = *p
	q.freed = false
	return q
}

// freePacket recycles a packet that reached its terminal point into
// the pool of the network where it ended, which on a cluster need not
// be the one that emitted it. The packet is zeroed so stale retention
// is observable (and so the pool does not pin payloads).
func (nw *Network) freePacket(p *Packet) {
	if p.freed {
		panic("netsim: packet double free")
	}
	nw.pktFrees++
	*p = Packet{freed: true}
	if pool := nw.pool; len(pool.free) < maxPooledPackets {
		//hbplint:ignore hotalloc free-list growth is capped at maxPooledPackets; a list grows only to the most packets its pool ever held free at once — on a cluster a terminating shard's list also feeds the barrier top-up — and the pool reuse tests pin 0 allocs once that peak is reached.
		pool.free = append(pool.free, p)
	}
}

// New returns an empty network bound to the given simulator, with a
// packet pool of its own.
func New(sim *des.Simulator) *Network {
	return &Network{Sim: sim, maxID: None, pool: &packetPool{}}
}

// AddNode creates a node with the given debug name.
func (nw *Network) AddNode(name string) *Node {
	return nw.addNodeWithID(NodeID(len(nw.nodes)), name)
}

// addNodeWithID creates a node carrying an externally allocated ID.
// Cluster uses it to hand out cluster-global IDs; standalone networks
// must not mix it with AddNode's dense numbering.
func (nw *Network) addNodeWithID(id NodeID, name string) *Node {
	if id < 0 {
		panic("netsim: negative node ID")
	}
	if nw.Node(id) != nil {
		panic(fmt.Sprintf("netsim: duplicate node ID %d", id))
	}
	n := &Node{ID: id, Name: name, net: nw}
	nw.nodes = append(nw.nodes, n)
	if int(id) == len(nw.idIndex) {
		nw.idIndex = append(nw.idIndex, n)
	} else {
		// Cluster-global ID beyond the dense prefix: spill to the map
		// instead of growing the slice with nil holes. (IDs below the
		// prefix length are always occupied, so the duplicate check
		// above already rejected them.)
		if nw.idSpill == nil {
			nw.idSpill = make(map[NodeID]*Node)
		}
		nw.idSpill[id] = n
	}
	if id > nw.maxID {
		nw.maxID = id
	}
	return n
}

// Nodes returns all nodes in creation order — indexed by NodeID on a
// standalone network. A Cluster part lists its own nodes only, the
// endpoints materialised so far (Cluster.AddLeaves) after the eager
// ones.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Node returns the node with the given ID, or nil. For a Cluster part
// this resolves only locally owned nodes; remote IDs and reserved
// endpoints nothing has materialised yet return nil.
func (nw *Network) Node(id NodeID) *Node {
	if id < 0 {
		return nil
	}
	if int(id) < len(nw.idIndex) {
		return nw.idIndex[id]
	}
	if owner, ok := nw.leaves.ownerOf(id); ok {
		if o := nw.Node(owner); o != nil {
			return o.leafNode(id)
		}
		return nil
	}
	return nw.idSpill[id]
}

// Links returns all links in creation order.
func (nw *Network) Links() []*Link { return nw.links }

// Connect joins two nodes with a full-duplex link. Bandwidth is in
// bits/s and delay in seconds. Self-links and duplicate parallel links
// are rejected because static routing cannot disambiguate them.
func (nw *Network) Connect(a, b *Node, bandwidth, delay float64) *Link {
	if a == b {
		panic("netsim: self-link")
	}
	if a.PortTo(b) != nil {
		panic(fmt.Sprintf("netsim: duplicate link %v<->%v", a, b))
	}
	if bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	if delay < 0 {
		panic("netsim: negative delay")
	}
	l := &Link{Bandwidth: bandwidth, Delay: delay, net: nw}
	pa := &Port{node: a, link: l, q: newOutQueue(), index: len(a.ports)}
	pb := &Port{node: b, link: l, q: newOutQueue(), index: len(b.ports)}
	pa.peer, pb.peer = pb, pa
	l.a, l.b = pa, pb
	a.ports = append(a.ports, pa)
	b.ports = append(b.ports, pb)
	nw.links = append(nw.links, l)
	return l
}

// ComputeRoutes builds the network's route table — shortest paths by
// hop count, ties broken by discovery order, which is deterministic —
// and shares it with every node. The representation follows nw.Routing.
// Cross-part ports (nil peer) are skipped: routes spanning parts are
// the Cluster's job. Call it after the topology is final and before
// traffic starts.
func (nw *Network) ComputeRoutes() {
	nw.rt = buildRoutes(nw.Routing, nw.nodes, int(nw.maxID)+1, peerOf)
	for _, n := range nw.nodes {
		n.rt = nw.rt
	}
}

// RouteBytes estimates the memory held by the route table (0 before
// ComputeRoutes).
func (nw *Network) RouteBytes() int64 {
	if nw.rt == nil {
		return 0
	}
	return nw.rt.RouteBytes()
}

// RouteKind names the route-table representation in use ("dense" or
// "compressed"; empty before ComputeRoutes).
func (nw *Network) RouteKind() string {
	if nw.rt == nil {
		return ""
	}
	return nw.rt.Kind()
}

// PathHops returns the hop count from a to b (0 for a==b, -1 if
// unreachable). Routes must be computed.
func (nw *Network) PathHops(a, b NodeID) int {
	if a == b {
		return 0
	}
	cur := nw.Node(a)
	hops := 0
	for cur != nil && cur.ID != b {
		next := cur.NextHop(b)
		if next == nil {
			return -1
		}
		cur = next.farNode()
		hops++
		// Loop guard bounded by the ID space, not the part's node
		// count: a cluster part's walk legitimately crosses into other
		// parts via farNode, so the path can be longer than the part.
		if hops > int(nw.maxID)+1 {
			return -1
		}
	}
	if cur == nil {
		return -1
	}
	return hops
}

// Path returns the node sequence from a to b inclusive, or nil if
// unreachable.
func (nw *Network) Path(a, b NodeID) []*Node {
	cur := nw.Node(a)
	if cur == nil {
		return nil
	}
	path := []*Node{cur}
	for cur.ID != b {
		next := cur.NextHop(b)
		if next == nil {
			return nil
		}
		cur = next.farNode()
		path = append(path, cur)
		if len(path) > int(nw.maxID)+2 {
			return nil
		}
	}
	return path
}

// Drain tears down all in-transit packet state after a run: every
// pending link event still holding a packet (serialization or
// propagation in flight) is cancelled and its packet recycled, and
// every port's output queues are flushed back to the pool. Statistics
// counters are untouched, so Drain composes with result collection;
// only the packets themselves are reclaimed. After the traffic sources
// are stopped and Drain returns, PacketsOutstanding must read zero —
// that is the leak-checked teardown contract of a completed run.
//
// Drain assumes the usual one-network-per-simulator layout: the typed
// events it reclaims packets from are matched by operand type, so a
// second network sharing the simulator would have its in-flight
// packets freed into the wrong pool.
func (nw *Network) Drain() {
	nw.Sim.DrainPending(func(ev des.DrainedEvent) {
		nw.reclaimDrained(ev)
	})
	nw.flushPorts()
}

// reclaimDrained recycles the packet (if any) riding on one drained
// link event. A cross-part delivery whose transfer bookkeeping has not
// completed (the source part already charged the free, the destination
// has not yet charged the allocation) completes the transfer first so
// the per-part gauges stay balanced.
func (nw *Network) reclaimDrained(ev des.DrainedEvent) {
	p, ok := ev.B.(*Packet)
	if !ok || p.freed {
		return
	}
	if ev.Kind == kindCrossArrive {
		nw.pktAllocs++
	}
	nw.freePacket(p)
}

// flushPorts returns every queued packet to the pool and clears the
// transmit-busy latches — the port half of Drain. Cross-part half
// links have only their local port.
func (nw *Network) flushPorts() {
	for _, l := range nw.links {
		for _, pt := range [2]*Port{l.a, l.b} {
			if pt == nil {
				continue
			}
			pt.q.flush(nw)
			pt.busy = false
		}
	}
}

// TotalQueueDrops sums drop-tail losses over every port.
func (nw *Network) TotalQueueDrops() int64 {
	var t int64
	for _, l := range nw.links {
		for _, pt := range [2]*Port{l.a, l.b} {
			if pt != nil {
				t += pt.QueueDrops()
			}
		}
	}
	return t
}
