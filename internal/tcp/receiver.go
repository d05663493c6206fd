package tcp

import (
	"repro/internal/des"
	"repro/internal/netsim"
)

// Endpoint multiplexes TCP flows on one host node: it owns the node's
// packet handler, dispatches inbound ACKs to local senders, and (when
// receiving) generates cumulative ACKs for inbound data.
type Endpoint struct {
	Node *netsim.Node
	sim  *des.Simulator

	senders map[int]*Sender
	recv    map[int]*rxFlow
}

// ackSize is the ACK packet size in bytes.
const ackSize = 40

// rxFlow is receive-side per-flow state.
type rxFlow struct {
	// cum is the highest in-order segment received.
	cum int64
	// ooo buffers out-of-order segment numbers.
	ooo map[int64]bool
	// Bytes counts in-order payload delivered.
	Bytes int64
}

// NewEndpoint attaches transport dispatch to a host node, taking over
// its packet handler.
func NewEndpoint(node *netsim.Node) *Endpoint {
	e := &Endpoint{
		Node:    node,
		sim:     node.Network().Sim,
		senders: map[int]*Sender{},
		recv:    map[int]*rxFlow{},
	}
	node.Handler = e.handle
	return e
}

// NewSender creates a flow from this endpoint to dst.
func (e *Endpoint) NewSender(dst netsim.NodeID, flowID int, cfg SenderConfig) *Sender {
	cfg.fillDefaults()
	s := &Sender{
		Cfg:    cfg,
		Node:   e.Node,
		FlowID: flowID,
		dst:    dst,
		sim:    e.sim,
	}
	e.senders[flowID] = s
	return s
}

// handle processes packets addressed to the host.
func (e *Endpoint) handle(p *netsim.Packet, in *netsim.Port) {
	switch p.Type {
	case netsim.Ack:
		if a, ok := p.Payload.(*ack); ok {
			if s, ok := e.senders[a.FlowID]; ok {
				// ACKs from a previous server (pre-migration) belong
				// to the old connection; drop them.
				if p.Src == s.dst {
					s.handleAck(a)
				}
			}
		}
	case netsim.Data:
		e.AcceptData(p)
	case netsim.Handshake:
		e.AcceptHandshake(p)
	}
}

// AcceptHandshake processes a connection setup (or checkpoint-resume)
// packet: the carried checkpoint seeds the receive state so a
// migrated stream continues from where the previous server left off
// (Sec. 4). Roaming server agents delegate here via OnHandshake.
func (e *Endpoint) AcceptHandshake(p *netsim.Packet) {
	cp, ok := p.Payload.(*Checkpoint)
	if !ok {
		return
	}
	f, exists := e.recv[cp.FlowID]
	if !exists {
		f = &rxFlow{ooo: map[int64]bool{}}
		e.recv[cp.FlowID] = f
	}
	if cp.Cum > f.cum {
		f.cum = cp.Cum
	}
}

// AcceptData registers an inbound data segment and emits the
// cumulative ACK. It is exported so roaming server agents (which own
// their node handler for honeypot/blacklist processing) can delegate
// accepted data here via their OnServe callback.
func (e *Endpoint) AcceptData(p *netsim.Packet) {
	f, ok := e.recv[p.FlowID]
	if !ok {
		f = &rxFlow{ooo: map[int64]bool{}}
		e.recv[p.FlowID] = f
	}
	switch {
	case p.Seq == f.cum+1:
		f.cum++
		f.Bytes += int64(p.Size)
		for f.ooo[f.cum+1] {
			delete(f.ooo, f.cum+1)
			f.cum++
			f.Bytes += int64(p.Size)
		}
	case p.Seq > f.cum+1:
		f.ooo[p.Seq] = true
	}
	// Cumulative ACK back to the claimed source (legitimate senders
	// do not spoof, so this reaches them).
	pp := e.Node.NewPacket()
	*pp = netsim.Packet{
		Src:     e.Node.ID,
		TrueSrc: e.Node.ID,
		Dst:     p.Src,
		Size:    ackSize,
		Type:    netsim.Ack,
		FlowID:  p.FlowID,
		Legit:   true,
		Payload: &ack{Cum: f.cum, FlowID: p.FlowID},
	}
	e.Node.Send(pp)
}

// ReceivedBytes returns in-order bytes accepted for a flow.
func (e *Endpoint) ReceivedBytes(flowID int) int64 {
	if f, ok := e.recv[flowID]; ok {
		return f.Bytes
	}
	return 0
}
