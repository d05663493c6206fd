package core

import (
	"repro/internal/bounded"
	"repro/internal/hbp"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/trace"
)

// ServerDefense drives honeypot back-propagation from one server of
// the roaming pool. The victim-side algorithm — session setup at the
// activation threshold, teardown at window end, the watchdog and the
// progressive scheme's intermediate-router list — is the embedded
// hbp.Controller shared with the AS plane; this type adds control
// message intake and the router-plane transport.
type ServerDefense struct {
	hbp.Controller[netsim.NodeID]

	d *Defense
	// node is the defended server's node. It usually belongs to a
	// roaming ServerAgent; sink servers (AttachSink) have no agent and
	// drive their windows explicitly.
	node *netsim.Node

	// replay is the anti-replay window for incoming reports/acks,
	// allocated on first use under EpochAuth.
	replay *bounded.ReplayWindow
}

func newServerDefense(d *Defense, sa *roaming.ServerAgent) *ServerDefense {
	s := newServerCore(d, sa.Node)
	sa.OnHoneypotStart = s.OpenWindow
	sa.OnHoneypotEnd = s.CloseWindow
	sa.OnHoneypotPacket = func(*netsim.Packet, *netsim.Port) { s.HoneypotPacket() }
	return s
}

// newServerCore builds the agent-independent part of a ServerDefense
// and intercepts defense control messages before any previous handler
// (the roaming agent's, say) counts them as (honeypot) traffic.
func newServerCore(d *Defense, node *netsim.Node) *ServerDefense {
	s := &ServerDefense{d: d, node: node}
	s.Controller = hbp.NewController[netsim.NodeID](d.sim, routerPlane{s}, hbp.ControllerConfig{
		ActivationThreshold: d.Cfg.ActivationThreshold,
		Progressive:         d.Cfg.Progressive,
		Rho:                 d.Cfg.Rho,
		Tau:                 d.Cfg.Tau,
		Watchdog:            d.Cfg.Watchdog,
		WatchdogInterval:    d.Cfg.WatchdogInterval,
		EventPrefix:         "hbp",
	})
	prev := node.Handler
	node.Handler = func(p *netsim.Packet, in *netsim.Port) {
		if m, ok := p.Payload.(*Message); ok && p.Type == netsim.Control {
			s.handleControl(m, p, in)
			return
		}
		if prev != nil {
			prev(p, in)
		}
	}
	return s
}

// routerPlane is the controller's router-plane transport: the tree
// root is the server's first-hop router, intermediates are routers
// addressed directly, and windows come from the roaming pool.
type routerPlane struct{ *ServerDefense }

func (s routerPlane) firstHop() netsim.NodeID {
	return s.node.Ports()[0].Peer().Node().ID
}

// send emits one Request or Cancel from the server, hop-by-hop to the
// first-hop router or directly to an intermediate. A router-plane send
// always leaves.
func (s routerPlane) send(kind MsgKind, to netsim.NodeID, epoch int, direct bool) bool {
	m := &Message{Kind: kind, Server: s.node.ID, Epoch: epoch, Direct: direct}
	if kind == Request {
		m.Lease = s.d.Cfg.SessionLifetime
	}
	s.d.sendReliable(s.node, to, m, direct, s.node.ID)
	return true
}

func (s routerPlane) Request(epoch int, reseed bool) bool {
	kind, why := trace.RequestSent, ""
	if reseed {
		s.d.Sec.WatchdogReseeds++
		kind, why = trace.WatchdogReseeded, "stalled propagation"
	}
	s.d.rec(kind, int(s.node.ID), int(s.firstHop()), int(s.node.ID), why)
	return s.send(Request, s.firstHop(), epoch, false)
}

func (s routerPlane) Cancel(epoch int) bool {
	s.d.rec(trace.CancelSent, int(s.node.ID), int(s.firstHop()), int(s.node.ID), "")
	return s.send(Cancel, s.firstHop(), epoch, false)
}

func (s routerPlane) DirectRequest(to netsim.NodeID, epoch int) bool {
	return s.send(Request, to, epoch, true)
}

func (s routerPlane) DirectCancel(to netsim.NodeID, epoch int) bool {
	return s.send(Cancel, to, epoch, true)
}

func (s routerPlane) NextWindow(from int) (int, float64, bool) {
	pool := s.d.pool
	next := pool.NextHoneypotEpoch(s.node.ID, from)
	if next < 0 {
		return 0, 0, false // chain exhausted
	}
	return next, pool.EpochStartTime(next) + pool.Config().Guard, true
}

func (s routerPlane) CaptureCount() int { return s.d.CaptureCount() }

// handleControl processes defense control messages addressed to the
// server: progressive reports and, under the reliable control plane,
// acks for the server's own requests and cancels.
func (s *ServerDefense) handleControl(m *Message, p *netsim.Packet, in *netsim.Port) {
	if s.d.Cfg.EpochAuth {
		if !s.d.verifyCtrl(m, s.node.ID) {
			s.d.MsgBadAuth++
			s.d.Sec.AuthRejects++
			s.d.rec(trace.AuthRejected, int(s.node.ID), int(p.Src), int(m.Server), "bad epoch MAC")
			return
		}
		if !s.d.epochFresh(m) {
			s.d.Sec.ReplayRejects++
			s.d.rec(trace.ReplayRejected, int(s.node.ID), int(p.Src), int(m.Server), "stale epoch")
			return
		}
		if s.replay == nil {
			s.replay = s.d.newReplayFilter()
		}
		if !s.d.replayOK(s.replay, m, s.node.ID) {
			// A replayed report was already processed once; re-acking it
			// would only answer an attacker, so drop silently.
			return
		}
	}
	if m.Kind == Ack {
		// Hop-by-hop acks (from the first-hop router) pass the TTL-255
		// adjacency check; acks from farther away need a valid tag.
		if !s.d.Cfg.EpochAuth && p.TTL != netsim.DefaultTTL && !m.Verify(s.d.Cfg.AuthKey) {
			s.d.MsgBadAuth++
			return
		}
		s.d.handleAck(m)
		return
	}
	if m.Kind != Report || m.Server != s.node.ID {
		return
	}
	// Reports travel multi-hop; they must carry a valid tag.
	if !s.d.Cfg.EpochAuth && !m.Verify(s.d.Cfg.AuthKey) {
		s.d.MsgBadAuth++
		return
	}
	s.d.maybeAck(s.node, m, p)
	s.Report(m.Origin, m.Epoch, m.Timestamp)
}
