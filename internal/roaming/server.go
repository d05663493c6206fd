package roaming

import (
	"repro/internal/bounded"
	"repro/internal/netsim"
)

// ServerStats aggregates one server's traffic accounting.
type ServerStats struct {
	// ServedBytes is data payload accepted while active.
	ServedBytes int64
	// HoneypotPackets counts packets received inside honeypot windows.
	HoneypotPackets int64
	// BlacklistDrops counts packets discarded because their claimed
	// source was blacklisted.
	BlacklistDrops int64
	// HandshakesVerified counts distinct sources that completed a
	// handshake.
	HandshakesVerified int64
}

// ServerAgent runs the roaming-honeypots protocol on one server node:
// it follows the pool schedule, serves while active, and treats
// arrivals inside its guarded honeypot windows as attack traffic. It
// also implements the handshake-verified blacklist of Sec. 4.
//
// Defense layers (honeypot back-propagation) attach via the
// OnHoneypot* callbacks.
type ServerAgent struct {
	Node *netsim.Node
	Pool *Pool

	// OnHoneypotStart fires when a guarded honeypot window opens.
	OnHoneypotStart func(epoch int)
	// OnHoneypotEnd fires when the window closes.
	OnHoneypotEnd func(epoch int)
	// OnHoneypotPacket fires for every packet received inside a
	// honeypot window (after blacklist filtering).
	OnHoneypotPacket func(p *netsim.Packet, in *netsim.Port)
	// OnServe fires for data packets accepted while active; the
	// metrics layer and transport receivers (internal/tcp) use it.
	OnServe func(p *netsim.Packet)
	// OnHandshake fires for handshake packets accepted while active
	// (after blacklist filtering); transport receivers use it to
	// accept migrated connections.
	OnHandshake func(p *netsim.Packet)

	Stats ServerStats

	inWindow bool
	curEpoch int
	// blacklist and verified are keyed by claimed source address —
	// attacker-controlled input — so both are hard-capped (FIFO
	// eviction) at maxTrackedSources.
	blacklist *bounded.Dedup
	verified  *bounded.Dedup
}

// maxTrackedSources caps each server's blacklist and handshake-verified
// set. Source addresses arrive in attacker-chosen packets, so both sets
// must have a hard budget; at the cap the oldest tracked source is
// forgotten (FIFO) and may have to re-verify — or escape the blacklist
// until it hits a honeypot again. The cap is far above any simulated
// host population, so it only binds under spoofed-flood pressure.
const maxTrackedSources = 1 << 16

// NewServerAgent attaches an agent to a server node and subscribes it
// to the pool schedule. It takes over the node's packet handler.
func NewServerAgent(pool *Pool, node *netsim.Node) *ServerAgent {
	a := &ServerAgent{
		Node:      node,
		Pool:      pool,
		blacklist: bounded.NewDedup(maxTrackedSources),
		verified:  bounded.NewDedup(maxTrackedSources),
	}
	node.Handler = a.handle
	pool.Subscribe(a)
	return a
}

// InHoneypotWindow reports whether the server is currently inside a
// guarded honeypot window.
func (a *ServerAgent) InHoneypotWindow() bool { return a.inWindow }

// Blacklisted reports whether a source address is blacklisted.
func (a *ServerAgent) Blacklisted(src netsim.NodeID) bool { return a.blacklist.Seen(int64(src)) }

// EpochStart implements Listener.
func (a *ServerAgent) EpochStart(epoch int, active []netsim.NodeID) {
	a.curEpoch = epoch
	isActive := false
	for _, id := range active {
		if id == a.Node.ID {
			isActive = true
			break
		}
	}
	if isActive {
		// Window, if any, was closed by the previous epoch's timer;
		// ensure consistency even with zero guard.
		a.closeWindow(epoch)
		return
	}
	cfg := a.Pool.Config()
	sim := a.Node.Network().Sim
	// Guarded window: [start+Guard, start+m-Guard]. With Guard == 0
	// the window spans the whole epoch.
	sim.After(cfg.Guard, func() {
		if a.curEpoch != epoch {
			return // schedule moved on (short epochs + large delays)
		}
		a.openWindow(epoch)
	})
	sim.After(cfg.EpochLen-cfg.Guard, func() {
		a.closeWindow(epoch)
	})
}

func (a *ServerAgent) openWindow(epoch int) {
	if a.inWindow {
		return
	}
	a.inWindow = true
	if a.OnHoneypotStart != nil {
		a.OnHoneypotStart(epoch)
	}
}

func (a *ServerAgent) closeWindow(epoch int) {
	if !a.inWindow {
		return
	}
	a.inWindow = false
	if a.OnHoneypotEnd != nil {
		a.OnHoneypotEnd(epoch)
	}
}

// handle is the node packet handler.
func (a *ServerAgent) handle(p *netsim.Packet, in *netsim.Port) {
	if a.blacklist.Seen(int64(p.Src)) {
		a.Stats.BlacklistDrops++
		return
	}
	if p.Type == netsim.Handshake {
		// A handshake completes only when the reply reaches the real
		// initiator, i.e. the claimed source is genuine. The simulator
		// shortcut Src == TrueSrc stands in for the reply round-trip;
		// a spoofing attacker never sees the reply, so never verifies.
		//hbplint:ignore groundtruth models the handshake reply round-trip, not an oracle: only the true owner of an address receives the reply, which is exactly what this comparison encodes.
		if p.Src == p.TrueSrc {
			if !a.verified.Check(int64(p.Src)) {
				a.Stats.HandshakesVerified++
			}
		}
		if !a.inWindow && a.OnHandshake != nil {
			a.OnHandshake(p)
		}
	}
	if a.inWindow {
		a.Stats.HoneypotPackets++
		// Sec. 4: a verified (non-spoofable) source that hits a
		// honeypot is blacklisted outright.
		if a.verified.Seen(int64(p.Src)) {
			a.blacklist.Check(int64(p.Src))
		}
		if a.OnHoneypotPacket != nil {
			a.OnHoneypotPacket(p, in)
		}
		return
	}
	if p.Type == netsim.Data {
		a.Stats.ServedBytes += int64(p.Size)
		if a.OnServe != nil {
			a.OnServe(p)
		}
	}
}
