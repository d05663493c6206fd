package netsim

import (
	"fmt"

	"repro/internal/des"
)

// Link is a full-duplex point-to-point link: two independent
// directions, each with its own output queue at the sending port.
type Link struct {
	// Bandwidth is the transmission rate in bits per second.
	Bandwidth float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64

	a, b *Port
	net  *Network

	down bool
	// LostToFailure counts packets lost to the link being down: those
	// destroyed mid-transmission, those whose transmission completed
	// while the link was down, and those sent into a link that was
	// already down at enqueue time.
	LostToFailure int64

	// Loss, when non-nil, is consulted once per packet at the end of
	// its serialization (after the down check); returning true destroys
	// the packet. from is the transmitting port, so direction-dependent
	// loss models (e.g. per-direction Gilbert–Elliott state) can key on
	// it. internal/faults installs these hooks; they must be
	// deterministic functions of (packet order, seeded RNG) for runs to
	// stay reproducible.
	Loss func(p *Packet, from *Port) bool
	// LostToNoise counts packets destroyed by the Loss hook.
	LostToNoise int64
}

// SetDown fails or restores the link. While down, packets entering
// transmission are lost (queued packets stay queued only until their
// turn; in-flight propagation completes — the failure model is "the
// wire goes dark", matching the common DES convention).
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// A returns the port on the first-connected node.
func (l *Link) A() *Port { return l.a }

// B returns the port on the second-connected node.
func (l *Link) B() *Port { return l.b }

// TxTime returns the serialization delay of a packet of size bytes.
func (l *Link) TxTime(size int) float64 {
	return float64(size*8) / l.Bandwidth
}

func (l *Link) String() string {
	return fmt.Sprintf("link %v<->%v %.3gbps %.3gs", l.a.node, l.a.farNode(), l.Bandwidth, l.Delay)
}

// Port is one node's attachment to one link direction pair. Output
// queueing and transmission happen at the sending port; ingress
// filtering (the paper's MAC/switch-port capture) happens at the
// receiving port.
type Port struct {
	node  *Node
	link  *Link
	peer  *Port
	q     outQueue
	busy  bool
	index int // position in node.ports, cached at attachment

	// remote/far are set only on cross-part egress ports (Cluster
	// links whose endpoints live on different part networks). remote is
	// the des.Channel carrying this direction's traffic; far is the
	// receiving port at the other end — the reverse direction's egress
	// port, exactly as peer doubles as the ingress port on an ordinary
	// duplex link. peer is nil on such ports.
	remote *des.Channel
	far    *Port

	// BlockedIngress, when set, drops every packet arriving at this
	// port. It models the access-switch port shutdown installed when
	// intra-AS back-propagation reaches an attack host (Sec. 5.2).
	BlockedIngress bool
	// IngressDrops counts packets lost to BlockedIngress.
	IngressDrops int64

	// RxLegitDataBytes counts ground-truth legitimate data payload
	// arriving on this port; metrics use it to compute goodput.
	RxLegitDataBytes int64
}

// Node returns the owning node.
func (pt *Port) Node() *Node { return pt.node }

// Link returns the attached link.
func (pt *Port) Link() *Link { return pt.link }

// Peer returns the port at the far end of the link. It is nil on a
// cross-part egress port; use Far for a lookup that spans both.
func (pt *Port) Peer() *Port { return pt.peer }

// Far returns the receiving port at the other end, whether the link is
// local (the duplex peer) or a cross-part half link.
func (pt *Port) Far() *Port {
	if pt.peer != nil {
		return pt.peer
	}
	return pt.far
}

// farNode returns the node at the other end of the port's link, or nil
// for a detached port.
func (pt *Port) farNode() *Node {
	if f := pt.Far(); f != nil {
		return f.node
	}
	return nil
}

// Index returns this port's position among its node's ports, the
// simulator analogue of an interface identifier. Edge-router packet
// marking uses it on every marked packet, so the value is cached at
// attachment time rather than scanned for.
func (pt *Port) Index() int { return pt.index }

// QueueLen returns the current output-queue occupancy (both lanes).
func (pt *Port) QueueLen() int { return pt.q.len() }

// QueueDrops returns cumulative data-lane drop-tail losses.
func (pt *Port) QueueDrops() int64 { return pt.q.DataDrops }

// QueueEnqueued returns cumulative data-lane accepted packets.
func (pt *Port) QueueEnqueued() int64 { return pt.q.DataEnqueued }

// SetQueueLimit overrides the data-lane capacity (packets).
func (pt *Port) SetQueueLimit(pkts int) { pt.q.dataLimit = pkts }

// enqueue accepts a packet for transmission out this port.
func (pt *Port) enqueue(p *Packet) {
	if pt.link.down {
		// Sent into a dead link: lost immediately, and — unlike the
		// silent vanishing of queued-then-destroyed packets — charged
		// to both the link and the sending node.
		pt.link.LostToFailure++
		pt.node.Stats.Drops[DropLinkDown]++
		pt.node.net.freePacket(p)
		return
	}
	if !pt.q.push(p) {
		pt.node.Stats.Drops[DropQueue]++
		pt.node.net.freePacket(p)
		return
	}
	if !pt.busy {
		pt.startTx()
	}
}

// Link-event kinds dispatched through des.ScheduleTyped. Using typed
// events (port + packet + kind riding in the event record) instead of
// anonymous closures keeps the two events of every packet hop — end of
// serialization, end of propagation — allocation-free.
const (
	evTxDone uint8 = iota // serialization finished at the sending port
	evArrive              // propagation finished; packet reaches the peer port
	// kindCrossArrive tags a propagation completion that crossed a
	// part boundary through a des.Channel. The distinct kind lets
	// teardown drains recognise a packet whose pool-ownership transfer
	// is still in flight (see Port.txDone and Network.reclaimDrained).
	kindCrossArrive
)

// linkDispatch is the des.TypedFunc for link events. It is a
// package-level function so scheduling it never allocates.
//
//hbplint:hotpath per-hop forwarding entry; hbpbench netsim.forward_hop_ns measures it, TestAllocsPerPacketHop pins 0 allocs/hop
func linkDispatch(a, b any, kind uint8) {
	pt := a.(*Port)
	p := b.(*Packet)
	if kind == evTxDone {
		pt.txDone(p)
	} else {
		pt.arrive(p)
	}
}

// startTx begins transmitting the head-of-line packet, scheduling the
// serialization completion as a typed event.
func (pt *Port) startTx() {
	p := pt.q.pop()
	if p == nil {
		pt.busy = false
		return
	}
	pt.busy = true
	sim := pt.node.net.Sim
	sim.ScheduleTyped(sim.Now()+pt.link.TxTime(p.Size), linkDispatch, pt, p, evTxDone)
}

// txDone handles the end of p's serialization out this port: the
// packet either dies on a failed/lossy link or starts propagating, and
// the next queued packet enters transmission.
func (pt *Port) txDone(p *Packet) {
	if pt.link.down {
		pt.link.LostToFailure++
		pt.node.net.freePacket(p)
		pt.startTx()
		return
	}
	if pt.link.Loss != nil && pt.link.Loss(p, pt) {
		pt.link.LostToNoise++
		pt.node.net.freePacket(p)
		pt.startTx()
		return
	}
	if pt.remote != nil {
		// Cross-part hop: the packet object itself crosses (zero copy),
		// so ownership moves pools. The source part charges the free
		// here without recycling or zeroing; the destination charges the
		// matching allocation when the delivery fires (crossArrive) or
		// when teardown drains it mid-transfer.
		pt.node.net.pktFrees++
		pt.remote.Send(pt.link.Delay, crossArrive, pt.far, p, kindCrossArrive)
		pt.startTx()
		return
	}
	sim := pt.node.net.Sim
	sim.ScheduleTyped(sim.Now()+pt.link.Delay, linkDispatch, pt.peer, p, evArrive)
	pt.startTx()
}

// crossArrive is the des.TypedFunc for cross-part deliveries: it
// completes the pool-ownership transfer begun in txDone, then hands
// the packet to the receiving port like any other arrival.
//
//hbplint:hotpath cross-shard delivery entry on the sharded engine's per-hop path
func crossArrive(a, b any, _ uint8) {
	pt := a.(*Port)
	p := b.(*Packet)
	pt.node.net.pktAllocs++
	pt.arrive(p)
}

// arrive handles p reaching this (receiving) port after propagation.
func (pt *Port) arrive(p *Packet) {
	//hbplint:ignore groundtruth RxLegitDataBytes is the goodput instrument read by internal/metrics; forwarding and defense logic never consult it.
	if p.Legit && p.Type == Data {
		pt.RxLegitDataBytes += int64(p.Size)
	}
	pt.node.receive(p, pt)
}
