package netsim

import "fmt"

// ForwardHook intercepts packets a node is about to forward (not
// locally deliver). Hooks run in registration order; the first hook
// that returns false drops the packet. The Pushback rate limiter and
// the honeypot-back-propagation input-debugging recorder are both
// forward hooks.
type ForwardHook interface {
	// Forward observes/filters p, arriving on in (nil when the node
	// itself originated the packet) and heading for out. Returning
	// false drops the packet.
	Forward(n *Node, p *Packet, in, out *Port) bool
}

// ForwardFunc adapts a function to the ForwardHook interface.
type ForwardFunc func(n *Node, p *Packet, in, out *Port) bool

// Forward implements ForwardHook.
func (f ForwardFunc) Forward(n *Node, p *Packet, in, out *Port) bool {
	return f(n, p, in, out)
}

// Handler consumes packets locally addressed to a node. in is nil for
// self-delivery (a node sending to itself).
type Handler func(p *Packet, in *Port)

// DropReason categorises packet losses for node counters.
type DropReason int

const (
	DropQueue DropReason = iota
	DropTTL
	DropNoRoute
	DropHook
	DropIngressBlocked
	// DropLinkDown counts packets sent into a link that was already
	// down at enqueue time (mid-transmission destructions are charged
	// to the link's LostToFailure only, since the sender already paid
	// the serialization).
	DropLinkDown
	// DropNodeDown counts packets arriving at (or flushed from) a
	// crashed node.
	DropNodeDown
	dropReasonCount
)

func (r DropReason) String() string {
	switch r {
	case DropQueue:
		return "queue-overflow"
	case DropTTL:
		return "ttl-expired"
	case DropNoRoute:
		return "no-route"
	case DropHook:
		return "hook-filtered"
	case DropIngressBlocked:
		return "ingress-blocked"
	case DropLinkDown:
		return "link-down"
	case DropNodeDown:
		return "node-down"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// NodeStats aggregates a node's packet accounting.
type NodeStats struct {
	Sent      int64
	Forwarded int64
	Delivered int64
	Drops     [dropReasonCount]int64
}

// TotalDrops sums losses across all reasons.
func (s *NodeStats) TotalDrops() int64 {
	var t int64
	for _, v := range s.Drops {
		t += v
	}
	return t
}

// Node is a host or router. Hosts have a Handler and typically degree
// one; routers forward. The distinction is behavioural, not typed.
type Node struct {
	ID   NodeID
	Name string

	net   *Network
	ports []*Port
	// rt is the shared route table built by ComputeRoutes; nil until
	// routes are computed.
	rt RouteTable
	// leaves holds the endpoint reservations this node owns
	// (Cluster.AddLeaves); nil on every other node.
	leaves []leafRun

	// Handler receives locally addressed packets.
	Handler Handler
	// hooks intercept forwarded packets.
	hooks []*hookEntry

	down bool

	Stats NodeStats
}

// SetDown crashes or restores the node. A crashed node blackholes
// every packet addressed to or routed through it and its output
// queues are flushed at crash time (in-RAM state does not survive a
// power cycle); packets already serializing on the wire still reach
// the peer. Restoring only revives forwarding — any agent state lost
// in the crash is the owning subsystem's problem (see
// core.Defense.CrashRouter).
func (n *Node) SetDown(down bool) {
	if down && !n.down {
		for _, pt := range n.ports {
			n.Stats.Drops[DropNodeDown] += int64(pt.q.flush(n.net))
		}
	}
	n.down = down
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Ports returns the node's attachment points, in attachment order.
func (n *Node) Ports() []*Port { return n.ports }

// Degree returns the number of attached links.
func (n *Node) Degree() int { return len(n.ports) }

// AddHook appends a forward hook. Hooks run in registration order.
// The returned function removes the hook; calling it more than once is
// harmless.
func (n *Node) AddHook(h ForwardHook) (remove func()) {
	entry := &hookEntry{h: h}
	n.hooks = append(n.hooks, entry)
	return func() {
		for i, x := range n.hooks {
			if x == entry {
				n.hooks = append(n.hooks[:i], n.hooks[i+1:]...)
				return
			}
		}
	}
}

// hookEntry wraps a ForwardHook so that removal works even for
// non-comparable hook values (e.g. ForwardFunc).
type hookEntry struct{ h ForwardHook }

// NextHop returns the port used to reach dst, or nil if unreachable.
// Routes must have been computed (Network.ComputeRoutes or
// Cluster.ComputeRoutes); the representation behind the lookup is the
// network's RouteTable. On a cluster with reserved endpoints
// (Cluster.AddLeaves) a reserved destination first resolves to the
// router owning it, so the table never learns about endpoints — and
// asking the owner itself materialises the endpoint.
func (n *Node) NextHop(dst NodeID) *Port {
	if n.rt == nil {
		return nil
	}
	if d := n.net.leaves; d != nil && (dst >= d.min || n.ID >= d.min) {
		return n.leafHop(d, dst)
	}
	return n.rt.NextHop(n, dst)
}

// PortTo returns the port directly connecting this node to neighbor,
// or nil if they are not adjacent.
func (n *Node) PortTo(neighbor *Node) *Port {
	for _, pt := range n.ports {
		if pt.farNode() == neighbor {
			return pt
		}
	}
	return nil
}

// Neighbors returns all directly connected nodes, including neighbors
// across part boundaries.
func (n *Node) Neighbors() []*Node {
	out := make([]*Node, 0, len(n.ports))
	for _, pt := range n.ports {
		if nb := pt.farNode(); nb != nil {
			out = append(out, nb)
		}
	}
	return out
}

// NewPacket returns a zeroed packet from the owning network's pool.
// See the Packet ownership rule for when it comes back.
func (n *Node) NewPacket() *Packet { return n.net.NewPacket() }

// Send originates a packet at this node, stamping a default TTL, then
// routes it. Packets addressed to the node itself are
// delivered locally without touching the network. Send takes ownership
// of p (see the Packet ownership rule).
//
//hbplint:hotpath packet origination entry; every generated packet passes through here
func (n *Node) Send(p *Packet) {
	if n.down {
		n.Stats.Drops[DropNodeDown]++
		n.net.freePacket(p)
		return
	}
	if p.TTL == 0 {
		p.TTL = DefaultTTL
	}
	n.Stats.Sent++
	if p.Dst == n.ID {
		n.deliver(p, nil)
		return
	}
	n.forward(p, nil)
}

// Inject delivers p to this node as though it had just arrived from
// the wire on port in, which must be one of n's ports. Flow-level
// macro-agents use it to materialize an aggregated flow as a real
// packet at the expansion boundary (the armed router or bottleneck)
// instead of simulating every upstream hop. The packet is subject to
// the normal arrival pipeline — ingress blocking, TTL decrement,
// forwarding hooks. Inject fills a default TTL when unset and takes
// ownership of p (see the Packet ownership rule).
//
//hbplint:hotpath macro-agent expansion entry; aggregated flows materialize per-packet traffic here
func (n *Node) Inject(p *Packet, in *Port) {
	if p.TTL == 0 {
		p.TTL = DefaultTTL
	}
	n.receive(p, in)
}

// receive handles a packet arriving from the wire on port in.
func (n *Node) receive(p *Packet, in *Port) {
	if n.down {
		n.Stats.Drops[DropNodeDown]++
		n.net.freePacket(p)
		return
	}
	if in.BlockedIngress {
		n.Stats.Drops[DropIngressBlocked]++
		in.IngressDrops++
		n.net.freePacket(p)
		return
	}
	if p.Dst == n.ID {
		n.deliver(p, in)
		return
	}
	// Forwarding: decrement TTL, expire at zero.
	p.TTL--
	if p.TTL <= 0 {
		n.Stats.Drops[DropTTL]++
		n.net.freePacket(p)
		return
	}
	n.forward(p, in)
}

func (n *Node) deliver(p *Packet, in *Port) {
	n.Stats.Delivered++
	if n.Handler != nil {
		n.Handler(p, in)
	}
	n.net.freePacket(p)
}

func (n *Node) forward(p *Packet, in *Port) {
	out := n.NextHop(p.Dst)
	if out == nil {
		n.Stats.Drops[DropNoRoute]++
		n.net.freePacket(p)
		return
	}
	for _, h := range n.hooks {
		if !h.h.Forward(n, p, in, out) {
			n.Stats.Drops[DropHook]++
			n.net.freePacket(p)
			return
		}
	}
	n.Stats.Forwarded++
	out.enqueue(p)
}

func (n *Node) String() string {
	if n.Name != "" {
		return fmt.Sprintf("%s(#%d)", n.Name, n.ID)
	}
	return fmt.Sprintf("node#%d", n.ID)
}
