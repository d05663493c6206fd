package core

import (
	"repro/internal/netsim"
)

// AttachSink hooks the defense into a bare capture sink: a server node
// with no roaming agent whose honeypot windows are driven explicitly
// via the controller's OpenWindow/CloseWindow. The AS plane's embedded
// intra-AS model uses this to run router-level tracebacks inside a
// stub AS — the HSM session, not a roaming schedule, decides when the
// sink is "the honeypot" (see DESIGN.md, "Plane unification"). Epochs
// label sessions exactly as the roaming schedule's epochs do.
func (d *Defense) AttachSink(n *netsim.Node) *ServerDefense {
	if s, ok := d.servers[n.ID]; ok {
		return s
	}
	s := newServerCore(d, n)
	// With no roaming agent to classify honeypot traffic, every
	// non-control packet arriving while the window is open counts.
	prev := n.Handler
	n.Handler = func(p *netsim.Packet, in *netsim.Port) {
		prev(p, in)
		if p.Type != netsim.Control {
			s.HoneypotPacket()
		}
	}
	d.servers[n.ID] = s
	return s
}
