// Package netsim is a packet-level network simulator built on the
// discrete-event engine in internal/des. It models nodes (hosts and
// routers), point-to-point links with finite bandwidth and propagation
// delay, drop-tail output queues with a priority lane for control
// traffic, static shortest-path routing, and pluggable per-node
// forwarding hooks. It plays the role ns-2 plays in the paper's
// evaluation (Sec. 8).
package netsim

import "fmt"

// NodeID identifies a node in the network. Addresses in this simulator
// are node IDs; a spoofed packet carries a Src that differs from the
// originating node.
type NodeID int

// None is the invalid NodeID, used where "no node" must be expressed.
const None NodeID = -1

// PacketType classifies simulator packets.
type PacketType int

const (
	// Data is bulk payload traffic (legitimate or attack).
	Data PacketType = iota
	// Ack is reverse-direction acknowledgement traffic.
	Ack
	// Control is defense-plane traffic (honeypot request/cancel,
	// pushback messages, roaming checkpoints). Control packets use
	// the priority lane of output queues.
	Control
	// Handshake is a connection-setup packet; the roaming-honeypots
	// blacklist only acts on sources that completed a handshake,
	// because a handshake cannot be completed with a spoofed source.
	Handshake
)

func (t PacketType) String() string {
	switch t {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Control:
		return "control"
	case Handshake:
		return "handshake"
	default:
		return fmt.Sprintf("PacketType(%d)", int(t))
	}
}

// DefaultTTL is the initial TTL of freshly created packets, matching
// the common IP default the paper's TTL-authentication check relies on.
const DefaultTTL = 255

// Packet is the unit of transfer. Packets are passed by pointer and
// owned by exactly one queue or event at a time.
//
// Ownership rule: a packet handed to Node.Send belongs to the network
// until its terminal point — it is recycled into the owning network's
// pool when dropped (queue overflow, TTL expiry, hook filter, link
// failure/loss, no route, blocked ingress, crashed node) or after the
// destination's Handler returns. Handlers and forward hooks therefore
// must not retain the packet (or its pointer) past the callback; copy
// the fields or Network.ClonePacket it instead. Allocate packets with
// Node.NewPacket / Network.NewPacket to reuse the pool; a literal
// &Packet{} also works (it simply joins the pool at its terminal
// point).
type Packet struct {
	// Src is the claimed source address. For spoofed attack packets
	// this is a forged value and differs from TrueSrc.
	Src NodeID
	// TrueSrc is the node that actually generated the packet. Defense
	// code must not read it; it exists for ground-truth metrics and
	// test assertions.
	TrueSrc NodeID
	// Dst is the destination address.
	Dst NodeID
	// Size is the wire size in bytes.
	Size int
	// Type classifies the packet (data/ack/control/handshake).
	Type PacketType
	// TTL decrements at every forwarding node; packets expire at 0.
	TTL int
	// Mark is the edge-router marking field (the paper reuses the IP
	// ID field for destination-end provider marking of diverted
	// honeypot traffic). Zero means unmarked.
	Mark int
	// FlowID groups packets of one transport flow.
	FlowID int
	// Seq is a per-flow sequence number.
	Seq int64
	// Legit is the ground-truth label used only by metrics.
	Legit bool
	// Payload carries control-message bodies (see internal/core and
	// internal/pushback). It is nil for plain data traffic.
	Payload any

	// freed marks packets currently resting in the pool. The check is
	// always on, not a debug build: freePacket panics on a double free
	// unconditionally, and every recycled packet is zeroed so stale
	// retention surfaces as zeroed fields instead of silent corruption.
	// The costs are one bool compare and one struct clear per terminal
	// packet — noise next to the queueing work — and in exchange every
	// ownership-rule violation that an exercised path can produce
	// fails loudly. hbplint's packetretain analyzer covers the
	// unexercised paths statically.
	freed bool
}

// Spoofed reports whether the claimed source differs from the true
// origin. Ground truth only; defenses never call this.
//
//hbplint:ignore groundtruth this is the definition of the ground-truth accessor itself.
func (p *Packet) Spoofed() bool { return p.Src != p.TrueSrc }

// Clone returns a shallow copy of the packet. Payloads are shared.
// The copy is heap-allocated; inside a simulation prefer
// Network.ClonePacket, which draws from the pool.
func (p *Packet) Clone() *Packet {
	q := *p
	q.freed = false
	return &q
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d (true %d) size=%d ttl=%d seq=%d",
		//hbplint:ignore groundtruth debug formatting for humans and test failure messages; nothing simulated reads the string.
		p.Type, p.Src, p.Dst, p.TrueSrc, p.Size, p.TTL, p.Seq)
}
