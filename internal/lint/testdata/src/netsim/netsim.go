// Package netsim is a minimal stub of repro/internal/netsim for the
// hbplint corpus: just enough surface (Packet, Port, Node, ClonePacket) for
// the analyzers' type checks to resolve.
package netsim

type NodeID int

type PacketType int

const (
	Data PacketType = iota
	Control
	Handshake
)

type Packet struct {
	Src, Dst NodeID
	TrueSrc  NodeID
	Legit    bool
	Mark     int
	FlowID   int64
	Seq      int64
	Size     int
	TTL      int
	Type     PacketType
	Payload  any
}

func (p *Packet) Spoofed() bool { return p.Src != p.TrueSrc }

type Port struct {
	ID int
}

func (pt *Port) Index() int { return pt.ID }

type Node struct {
	ID      NodeID
	Handler func(p *Packet, in *Port)
}

type Network struct{}

func (n *Network) ClonePacket(p *Packet) *Packet {
	q := *p
	return &q
}
