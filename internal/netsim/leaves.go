package netsim

import "fmt"

// Endpoints on demand. At internet scale almost every end host is never
// the source, destination or ingress of a single simulated packet, so a
// Cluster can reserve hosts instead of building them: AddLeaves hands a
// router a contiguous run of cluster-global IDs that behave as
// degree-one endpoints behind one access-link class. A reserved ID
// costs two flat-array entries — its owner's ID in the cluster-wide
// directory and a nil slot on the owner — and no Node, Link, Port,
// queue or route-table row. Node.NextHop resolves a reserved
// destination to its owner arithmetically and routes towards the owner
// through the ordinary RouteTable; the owner builds the real endpoint
// the first time its own port towards that ID is asked for. From then
// on the endpoint is an ordinary node on an ordinary duplex link of the
// owner's part network.
//
// Asking for that port is what builds the endpoint, so a caller that
// could do without it does not ask: EndpointPort returns the port only
// if it exists, and Node.Inject takes a nil ingress for a packet from
// a host that has none yet. A macro flow injecting at a host's own
// access router therefore builds the host only once something needs
// its port — in an internet run, a filter that must block it.

// leafDir is a cluster's directory of reserved endpoint IDs: the
// contiguous range [min, min+len(owner)) that follows the last eager
// node. Only Cluster.AddLeaves writes it, before any traffic; it is
// read-only afterwards, so every part and shard shares it.
type leafDir struct {
	min NodeID
	// owner[id-min] is the NodeID of the router endpoint id hangs off.
	owner []int32
}

// leafRun is one AddLeaves reservation as its owning router keeps it:
// len(port) endpoint IDs starting at first, over one access-link class.
type leafRun struct {
	first            NodeID
	bandwidth, delay float64
	// port[i] is the owner's port towards endpoint first+i, nil until
	// the endpoint is materialised. It lives on the owner — not in the
	// shared directory or the route table — because it is written
	// mid-run, and only ever by the shard executing the owner's part.
	port []*Port
}

// endpoint is one materialised leaf: the host node, its access link and
// both ports with their queues, allocated as a single heap object.
type endpoint struct {
	node  Node
	link  Link
	near  Port     // the owner's port towards the host (link.a)
	far   Port     // the host's only port (link.b)
	ports [1]*Port // backing array of node.ports
}

// AddLeaves reserves n endpoint IDs behind router, each a degree-one
// host on its own access link of the given class, and returns the first
// of them; the rest follow contiguously. Reserved IDs continue the
// cluster-global numbering, so every AddNode must come first — Nodes()
// then stays ID-indexed over exactly the eager nodes. Reservations are
// part of the model: make them in an order that does not depend on the
// placement.
func (cl *Cluster) AddLeaves(router *Node, n int, bandwidth, delay float64) NodeID {
	if int(router.ID) >= len(cl.nodes) || cl.nodes[router.ID] != router {
		panic(fmt.Sprintf("netsim: %v cannot own endpoints: not an eager node of this cluster", router))
	}
	if n < 1 {
		panic("netsim: empty endpoint reservation")
	}
	if bandwidth <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	if delay < 0 {
		panic("netsim: negative delay")
	}
	if cl.leaves == nil {
		cl.leaves = &leafDir{min: NodeID(len(cl.nodes))}
		for _, nw := range cl.parts {
			nw.leaves = cl.leaves
		}
	}
	d := cl.leaves
	first := d.min + NodeID(len(d.owner))
	for i := 0; i < n; i++ {
		d.owner = append(d.owner, int32(router.ID))
	}
	router.leaves = append(router.leaves, leafRun{
		first: first, bandwidth: bandwidth, delay: delay, port: make([]*Port, n),
	})
	return first
}

// ownerOf returns the router endpoint id hangs off; ok is false when id
// is not a reserved ID, as it always is on a nil directory.
func (d *leafDir) ownerOf(id NodeID) (owner NodeID, ok bool) {
	if d == nil || id < d.min || int(id-d.min) >= len(d.owner) {
		return None, false
	}
	return NodeID(d.owner[id-d.min]), true
}

// bytes estimates the directory's footprint plus the owners' port
// slots: the routing state reserved endpoints cost beyond the table.
func (d *leafDir) bytes() int64 {
	if d == nil {
		return 0
	}
	return int64(len(d.owner)) * (4 + 8)
}

// leafSlot locates endpoint id among the reservations n owns.
func (n *Node) leafSlot(id NodeID) (run *leafRun, i int) {
	for r := range n.leaves {
		run = &n.leaves[r]
		if i = int(id - run.first); i >= 0 && i < len(run.port) {
			return run, i
		}
	}
	return nil, 0
}

// EndpointPort returns n's port towards reserved endpoint id if that
// endpoint has been materialised, and nil when n does not own id or
// nothing has needed the endpoint yet. Unlike NextHop it never builds
// the endpoint: a caller that only needs the port when it exists —
// say, to inject a packet as arriving from the host, where a missing
// port means nil ingress — asks here.
func (n *Node) EndpointPort(id NodeID) *Port {
	if run, i := n.leafSlot(id); run != nil {
		return run.port[i]
	}
	return nil
}

// leafNode returns the materialised endpoint id behind n, or nil when n
// does not own id or nothing has needed the endpoint yet.
func (n *Node) leafNode(id NodeID) *Node {
	if pt := n.EndpointPort(id); pt != nil {
		return pt.peer.node
	}
	return nil
}

// leafHop is NextHop on a cluster with reservations, for the two cases
// the route table has no row for: n is itself an endpoint, or dst is a
// reserved ID.
func (n *Node) leafHop(d *leafDir, dst NodeID) *Port {
	if dst < 0 || int(dst-d.min) >= len(d.owner) || dst == n.ID {
		return nil
	}
	if n.ID >= d.min {
		// An endpoint has one way out; its router knows the rest.
		return n.ports[0]
	}
	owner := NodeID(d.owner[dst-d.min])
	if owner != n.ID {
		return n.rt.NextHop(n, owner)
	}
	run, i := n.leafSlot(dst)
	if pt := run.port[i]; pt != nil {
		return pt
	}
	return n.materialise(run, i)
}

// materialise builds endpoint run.first+i behind n and returns n's port
// towards it. It runs wherever the first lookup happens — on the shard
// executing n's part when that is mid-run — and touches only n and n's
// part network; it draws no random number and schedules no event, so
// when an endpoint becomes real never shows in a run's outcome.
func (n *Node) materialise(run *leafRun, i int) *Port {
	nw := n.net
	// The directive covers this line and the next: one object and its
	// registration with the part and the owner.
	e := &endpoint{} //hbplint:ignore hotalloc once per endpoint that traffic actually reaches, never per packet: building the endpoints no packet touches ahead of time is the cost this replaces.
	nw.nodes, nw.links, n.ports = append(nw.nodes, &e.node), append(nw.links, &e.link), append(n.ports, &e.near)
	id := run.first + NodeID(i)
	if id > nw.maxID {
		nw.maxID = id
	}
	e.ports[0] = &e.far
	e.node = Node{ID: id, net: nw, rt: n.rt, ports: e.ports[:]}
	e.link = Link{Bandwidth: run.bandwidth, Delay: run.delay, a: &e.near, b: &e.far, net: nw}
	e.near = Port{node: n, link: &e.link, peer: &e.far, q: newOutQueue(), index: int32(len(n.ports) - 1)}
	e.far = Port{node: &e.node, link: &e.link, peer: &e.near, q: newOutQueue()}
	run.port[i] = &e.near
	return &e.near
}
