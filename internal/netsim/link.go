package netsim

import (
	"fmt"
	"math"

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
	// stay reproducible. The hook is read when a packet starts
	// serializing: a lossy link keeps the end-of-serialization event on
	// every packet (see Port.startTx), so install it before traffic
	// flows.
	Loss func(p *Packet, from *Port) bool
	// LostToNoise counts packets destroyed by the Loss hook.
	LostToNoise int64
}

// SetDown fails or restores the link. A packet whose serialization
// ends while the link is down is lost (queued packets stay queued only
// until their turn; in-flight propagation completes — the failure
// model is "the wire goes dark", matching the common DES convention).
// The check is made at the end of serialization, so a link that fails
// and recovers within one packet's transmission loses nothing: failing
// the link gives each transmission in progress whose arrival is
// already scheduled its end event, at its reserved key, where the
// check is made (Port.endTx).
func (l *Link) SetDown(down bool) {
	l.down = down
	if !down {
		return
	}
	for _, pt := range [2]*Port{l.a, l.b} {
		if pt != nil && !pt.busy && !pt.node.net.Sim.Passed(pt.txEnd) {
			pt.scheduleTxEnd()
		}
	}
}

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
	node *Node
	link *Link
	peer *Port
	q    outQueue

	// txEnd is the reserved key of the end of the latest one-event
	// transmission, whose arrival event is arrival (see startTx). The
	// port transmits until dispatch order passes txEnd; the end event
	// is scheduled there only once something waits on it
	// (txEndQueued): a queued packet or a link failure.
	txEnd   des.Reservation
	arrival des.Event

	// remote/far are set only on cross-part egress ports (Cluster
	// links whose endpoints live on different part networks). remote is
	// the des.Channel carrying this direction's traffic; far is the
	// receiving port at the other end — the reverse direction's egress
	// port, exactly as peer doubles as the ingress port on an ordinary
	// duplex link. peer is nil on such ports.
	remote *des.Channel
	far    *Port

	// IngressDrops counts packets lost to BlockedIngress.
	IngressDrops int64

	// RxLegitDataBytes counts ground-truth legitimate data payload
	// arriving on this port; metrics use it to compute goodput.
	RxLegitDataBytes int64

	// The small fields share one word: a materialised endpoint holds
	// two ports and must stay in its size class (TestEndpointSizeClass).
	index int32 // position in node.ports, cached at attachment
	// busy marks a transmission on the two-event path: its evTxDone
	// is pending.
	busy        bool
	txEndQueued bool

	// BlockedIngress, when set, drops every packet arriving at this
	// port. It models the access-switch port shutdown installed when
	// intra-AS back-propagation reaches an attack host (Sec. 5.2).
	BlockedIngress bool
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
func (pt *Port) Index() int { return int(pt.index) }

// QueueLen returns the current output-queue occupancy (both lanes).
func (pt *Port) QueueLen() int { return pt.q.len() }

// QueueDrops returns cumulative data-lane drop-tail losses.
func (pt *Port) QueueDrops() int64 { return pt.q.DataDrops }

// QueueEnqueued returns cumulative data-lane accepted packets.
func (pt *Port) QueueEnqueued() int64 { return pt.q.DataEnqueued }

// SetQueueLimit overrides the data-lane capacity (packets); limits
// beyond math.MaxInt32 are taken as math.MaxInt32.
func (pt *Port) SetQueueLimit(pkts int) { pt.q.dataLimit = int32(min(pkts, math.MaxInt32)) }

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
	switch {
	case pt.busy:
		// txDone starts the next packet.
	case !pt.node.net.Sim.Passed(pt.txEnd):
		pt.scheduleTxEnd()
	default:
		pt.startTx()
	}
}

// Link-event kinds dispatched through des.ScheduleTyped. Using typed
// events (port + packet + kind riding in the event record) instead of
// anonymous closures keeps the events of every packet hop
// allocation-free.
const (
	// evTxDone: serialization finished at the sending port, on the
	// two-event path (see startTx); the packet rides the event.
	evTxDone uint8 = iota
	// evArrive: propagation finished; the packet reaches the peer port.
	evArrive
	// evTxEnd: serialization finished at the sending port whose
	// packet's arrival is already scheduled; it fires at the reserved
	// key only when something waits on it, and carries no packet.
	evTxEnd
	// kindCrossArrive tags a propagation completion that crossed a
	// part boundary through a des.Channel. The distinct kind lets
	// teardown drains recognise a packet whose pool-ownership transfer
	// is still in flight (see Port.txDone and Network.reclaimDrained).
	kindCrossArrive
)

// forceTxDone sends every transmission down the two-event path. Tests
// set it to hold the one-event path to the model it replaces.
var forceTxDone bool

// linkDispatch is the des.TypedFunc for link events. It is a
// package-level function so scheduling it never allocates.
//
//hbplint:hotpath per-hop forwarding entry; hbpbench netsim.forward_hop_ns measures it, TestAllocsPerPacketHop pins 0 allocs/hop
func linkDispatch(a, b any, kind uint8) {
	pt := a.(*Port)
	switch kind {
	case evArrive:
		pt.arrive(b.(*Packet))
	case evTxDone:
		pt.txDone(b.(*Packet))
	default:
		pt.endTx()
	}
}

// startTx begins transmitting the head-of-line packet. The store-and-
// forward model has two events per hop: the end of serialization at
// this port (evTxDone), then the end of propagation at the peer
// (evArrive). A local link that is up and has no Loss hook decides
// nothing at the end of serialization but whether the next packet
// starts, so startTx schedules the arrival now, at the time it would
// have had (end + Delay), and reserves the key the end event would
// have taken:
// the port counts as transmitting until dispatch order passes that
// key, and the end event is scheduled there only when a packet waits
// behind it or the link fails (endTx). Queue contents, drops and
// control-lane order are thus the same at every event as on the
// two-event path; only the arrival's tie-break seq is drawn earlier.
// Cut links (the channel send stays at the end of serialization),
// lossy links (Loss draws stay in end-of-serialization order) and
// links down at the start keep the two-event path.
func (pt *Port) startTx() {
	p := pt.q.pop()
	if p == nil {
		pt.busy = false
		return
	}
	l := pt.link
	sim := pt.node.net.Sim
	end := sim.Now() + l.TxTime(p.Size)
	if pt.remote != nil || l.Loss != nil || l.down || forceTxDone {
		pt.busy = true
		sim.ScheduleTyped(end, linkDispatch, pt, p, evTxDone)
		return
	}
	pt.busy = false
	pt.txEnd = sim.Reserve(end)
	pt.arrival = sim.ScheduleTyped(end+l.Delay, linkDispatch, pt.peer, p, evArrive)
	if pt.q.len() > 0 {
		pt.scheduleTxEnd()
	}
}

// scheduleTxEnd gives the transmission in progress, whose arrival is
// already scheduled, its end event at the reserved key, unless it has
// one.
func (pt *Port) scheduleTxEnd() {
	if !pt.txEndQueued {
		pt.txEndQueued = true
		pt.node.net.Sim.ScheduleReserved(pt.txEnd, linkDispatch, pt, nil, evTxEnd)
	}
}

// endTx handles the end of a serialization whose arrival was scheduled
// when it started. If the link failed meanwhile and is still down the
// packet dies, as in txDone: the arrival is cancelled, and the packet
// it held goes to the garbage collector rather than the pool, charged
// as a free so the leak gauge balances. The next queued packet then
// enters transmission.
func (pt *Port) endTx() {
	pt.txEndQueued = false
	if pt.link.down {
		pt.arrival.Cancel()
		pt.link.LostToFailure++
		pt.node.net.pktFrees++
	}
	pt.startTx()
}

// txDone handles the end of p's serialization out this port on the
// two-event path: the packet either dies on a failed/lossy link or
// starts propagating, and the next queued packet enters transmission.
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
