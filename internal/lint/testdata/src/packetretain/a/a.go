// Package a exercises the packetretain analyzer: every way a handler
// can leak a pooled packet, plus the sanctioned ClonePacket paths.
package a

import "netsim"

type sink struct {
	nw    *netsim.Network
	last  *netsim.Packet
	byID  map[netsim.NodeID]*netsim.Packet
	pl    any
	queue []*netsim.Packet
}

var globalQueue []*netsim.Packet

func schedule(f func()) { f() }

// Handle is a netsim.Node handler; p is borrowed from the pool.
func (s *sink) Handle(p *netsim.Packet, in *netsim.Port) {
	s.last = p            // want `borrowed \*netsim\.Packet stored past the handler callback`
	s.byID[p.Src] = p     // want `borrowed \*netsim\.Packet stored past the handler callback`
	s.pl = p.Payload      // want `Payload of a borrowed packet stored past the handler callback`
	globalQueue = append(globalQueue, p) // want `borrowed \*netsim\.Packet appended to a slice`
	schedule(func() {
		_ = p.Size // want `borrowed \*netsim\.Packet captured by a function literal`
	})
}

// HandleChan leaks via a channel send.
func HandleChan(p *netsim.Packet, in *netsim.Port, ch chan *netsim.Packet) {
	ch <- p // want `borrowed \*netsim\.Packet sent on a channel`
}

// HandleAlias leaks through a local alias of the parameter.
func HandleAlias(s *sink, p *netsim.Packet, in *netsim.Port) {
	q := p
	s.last = q // want `borrowed \*netsim\.Packet stored past the handler callback`
}

var lastSeen *netsim.Packet

// HandleOuter leaks by assigning to variables the callback does not
// own: a package-level one and one its enclosing function captured.
func HandleOuter(deliver func(func(p *netsim.Packet, in *netsim.Port))) (*netsim.Packet, any) {
	var kept *netsim.Packet
	var pl any
	deliver(func(p *netsim.Packet, in *netsim.Port) {
		lastSeen = p   // want `borrowed \*netsim\.Packet assigned to a variable declared outside the handler callback`
		kept = p       // want `borrowed \*netsim\.Packet assigned to a variable declared outside the handler callback`
		pl = p.Payload // want `Payload of a borrowed packet assigned to a variable declared outside the handler callback`
		own := p       // a local alias dies with the callback
		own = p
		_ = own
	})
	return kept, pl
}

// keeper's Clone is named like a copy but hands back its argument.
type keeper struct{}

func (keeper) Clone(p *netsim.Packet) *netsim.Packet { return p }

// HandleFakeClone trusts a method named Clone that keeps the borrowed
// packet itself.
func (s *sink) HandleFakeClone(p *netsim.Packet, in *netsim.Port) {
	var k keeper
	s.last = k.Clone(p) // want `borrowed \*netsim\.Packet stored past the handler callback`
}

// HandleClean shows the sanctioned patterns: field copies, value
// copies, and retaining an owned ClonePacket.
func (s *sink) HandleClean(p *netsim.Packet, in *netsim.Port) {
	src := p.Src // field copy is safe
	_ = src
	v := *p // value copy is safe
	_ = v
	s.last = s.nw.ClonePacket(p) // owned copy is safe to retain
	globalQueue = append(globalQueue, s.nw.ClonePacket(p))
	q := s.nw.ClonePacket(p)
	s.byID[q.Src] = q
	var kept netsim.Packet
	func(p *netsim.Packet) {
		kept = *p // a value copy outlives the packet safely
	}(p)
	_ = kept
}
