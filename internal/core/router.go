package core

import (
	"sort"

	"repro/internal/bounded"
	"repro/internal/hbp"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// session is a router-level honeypot session: the state kept while a
// server is a honeypot, recording which input ports carry traffic
// destined for it (router-level input debugging, Sec. 5.2). The
// lifecycle fields (epoch, lease, eviction rank) live in the shared
// hbp.SessionCore; the router plane adds its netsim substrate — the
// protected server's node ID and per-input-port counters.
type session struct {
	hbp.SessionCore
	server netsim.NodeID
	// counts tracks honeypot-destined packets per input port.
	counts map[*netsim.Port]int
	// requested marks ports across which the session was already
	// propagated (or whose host was captured).
	requested map[*netsim.Port]bool
}

// RouterAgent runs honeypot back-propagation on one router.
type RouterAgent struct {
	Node *netsim.Node

	d          *Defense
	sessions   map[netsim.NodeID]*session // keyed by protected server
	hookRemove func()
	// replay is the anti-replay window, allocated on first use under
	// EpochAuth.
	replay *bounded.ReplayWindow

	// Stats
	SessionsCreated int64
	SessionsClosed  int64
	Propagations    int64
	Blocks          int64
}

func newRouterAgent(d *Defense, n *netsim.Node) *RouterAgent {
	a := &RouterAgent{Node: n, d: d, sessions: map[netsim.NodeID]*session{}}
	n.Handler = a.handleControl
	return a
}

// ActiveSessions returns the number of live honeypot sessions.
func (a *RouterAgent) ActiveSessions() int { return len(a.sessions) }

// HasSession reports whether a session for the server is active.
func (a *RouterAgent) HasSession(server netsim.NodeID) bool {
	_, ok := a.sessions[server]
	return ok
}

// handleControl processes control packets addressed to this router.
func (a *RouterAgent) handleControl(p *netsim.Packet, in *netsim.Port) {
	m, ok := p.Payload.(*Message)
	if !ok || p.Type != netsim.Control {
		return
	}
	if !a.d.authOK(m, p, in) {
		return
	}
	if m.Kind == Ack {
		a.d.handleAck(m)
		return
	}
	if a.d.Cfg.EpochAuth && in != nil {
		if a.replay == nil {
			a.replay = a.d.newReplayFilter()
		}
		if !a.d.replayOK(a.replay, m, a.Node.ID) {
			// A benign retransmit duplicate lands here too; re-ack so
			// the sender stops, but process nothing.
			a.d.maybeAck(a.Node, m, p)
			return
		}
	}
	switch m.Kind {
	case Request:
		a.openSession(m)
	case Cancel:
		a.closeSession(m, true)
	case PiggybackRequest, PiggybackCancel:
		// Delivered here when a deploying router is the flood target;
		// treat as the corresponding message and stop the flood.
		if m.Kind == PiggybackRequest {
			a.openSession(m)
		} else {
			a.closeSession(m, true)
		}
	}
	// Processing is idempotent (a duplicate Request refreshes, a
	// duplicate Cancel is a no-op), so acking after the fact is safe
	// even for retransmitted duplicates.
	a.d.maybeAck(a.Node, m, p)
}

// openSession creates or refreshes the session for m.Server. A full
// table runs admission control: the incoming session is ranked against
// the weakest resident by victim distance, and either a resident is
// shed or the request is refused — the table never grows past its
// budget.
func (a *RouterAgent) openSession(m *Message) {
	s, ok := a.sessions[m.Server]
	if !ok {
		dist := a.d.victimDistance(a.Node, m.Server)
		if len(a.sessions) >= a.d.Cfg.Budget.Sessions {
			incoming := &session{SessionCore: hbp.SessionCore{Dist: dist}, server: m.Server}
			evicted, shed := hbp.EvictWeakest(a.sessions, weakerSession, incoming,
				func(s *session) netsim.NodeID { return s.server })
			if !shed {
				a.d.Sec.AdmissionRejects++
				a.d.rec(trace.SessionRefused, int(a.Node.ID), -1, int(m.Server), "table full")
				return
			}
			evicted.Drop()
			a.d.openSessions--
			a.d.Sec.SessionEvictions++
			a.d.rec(trace.SessionEvicted, int(a.Node.ID), -1, int(evicted.server), "budget")
		}
		s = &session{
			SessionCore: hbp.SessionCore{Epoch: m.Epoch, Dist: dist},
			server:      m.Server,
			counts:      map[*netsim.Port]int{},
			requested:   map[*netsim.Port]bool{},
		}
		a.sessions[m.Server] = s
		a.d.openSessions++
		a.SessionsCreated++
		a.d.rec(trace.SessionOpened, int(a.Node.ID), -1, int(m.Server), "")
		a.d.noteState()
		if len(a.sessions) == 1 {
			a.installHook()
		}
	} else {
		s.Epoch = m.Epoch
	}
	// Lease-based expiry: the Request's lease (falling back to the
	// configured lifetime) bounds how long the session may live without
	// a refresh. A lost Cancel or a dead downstream neighbor therefore
	// self-heals instead of leaking the session past the honeypot
	// epoch.
	life := m.Lease
	if life <= 0 {
		life = a.d.Cfg.SessionLifetime
	}
	server := m.Server
	s.RearmLease(a.d.sim, life, func() {
		a.d.Ctrl.LeaseExpiries++
		a.d.rec(trace.LeaseExpired, int(a.Node.ID), -1, int(server), "")
		a.closeSession(&Message{Kind: Cancel, Server: server, Epoch: s.Epoch}, false)
	})
}

// closeSession tears down the session, optionally forwarding the
// cancel upstream along the request tree and emitting a progressive
// frontier report.
func (a *RouterAgent) closeSession(m *Message, propagate bool) {
	s, ok := a.sessions[m.Server]
	if !ok {
		return
	}
	delete(a.sessions, m.Server)
	a.d.openSessions--
	a.SessionsClosed++
	a.d.rec(trace.SessionClosed, int(a.Node.ID), -1, int(m.Server), "")
	s.Drop()
	if len(a.sessions) == 0 && a.hookRemove != nil {
		a.hookRemove()
		a.hookRemove = nil
	}
	// Any still-retrying transfer for this session (an unacked Request
	// to a dead neighbor, say) is moot now — stop it before arming the
	// cancel wave below.
	a.d.abandonPending(func(ps *pendingSend) bool {
		return ps.from == a.Node && ps.server == s.server
	})
	if !propagate {
		return
	}
	// Forward the cancel across every port we propagated a request on
	// (captured host ports have requested=true too, but hosts ignore
	// control payloads; skip them to save messages). Port order is
	// fixed so sequence numbers — and therefore event ordering — stay
	// identical across runs.
	ports := make([]*netsim.Port, 0, len(s.requested))
	for pt := range s.requested {
		ports = append(ports, pt)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i].Index() < ports[j].Index() })
	for _, pt := range ports {
		up := pt.Far().Node()
		if a.d.isHost(up) {
			continue
		}
		cm := &Message{Kind: Cancel, Server: s.server, Epoch: s.Epoch}
		if a.d.deployed(up) {
			a.d.sendReliable(a.Node, up.ID, cm, false, s.server)
		} else {
			a.floodPiggyback(cm, PiggybackCancel, pt)
		}
	}
	// Progressive scheme (Sec. 6): if this router never propagated the
	// session upstream, it is the frontier; report identity and
	// timestamp to the server.
	if a.d.Cfg.Progressive && s.SentUpstream == 0 {
		rm := &Message{
			Kind:      Report,
			Server:    s.server,
			Epoch:     s.Epoch,
			Origin:    a.Node.ID,
			Timestamp: a.d.sim.Now(),
		}
		a.d.rec(trace.ReportSent, int(a.Node.ID), -1, int(s.server), "")
		a.d.sendReliable(a.Node, s.server, rm, true, s.server)
	}
}

// crash wipes the agent's state the way a power loss would: sessions
// and their lease timers are gone, input debugging stops. It returns
// the number of sessions lost.
func (a *RouterAgent) crash() int {
	lost := len(a.sessions)
	a.d.openSessions -= lost
	// Sorted teardown: Cancel mutates the event heap, so wipe
	// sessions in a deterministic order.
	servers := make([]netsim.NodeID, 0, len(a.sessions))
	for server := range a.sessions {
		servers = append(servers, server)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, server := range servers {
		a.sessions[server].Drop()
		delete(a.sessions, server)
	}
	if a.hookRemove != nil {
		a.hookRemove()
		a.hookRemove = nil
	}
	return lost
}

// installHook arms router-level input debugging: observe every
// forwarded packet whose destination has an active session.
func (a *RouterAgent) installHook() {
	a.hookRemove = a.Node.AddHook(netsim.ForwardFunc(a.observe))
}

// propagateThreshold is how many honeypot-destined packets an input
// port must carry before a router propagates the session upstream
// across it: 1 is plain input debugging.
const propagateThreshold = 1

// observe implements input debugging on the forwarding path.
func (a *RouterAgent) observe(n *netsim.Node, p *netsim.Packet, in, out *netsim.Port) bool {
	if p.Type == netsim.Control {
		return true
	}
	s, ok := a.sessions[p.Dst]
	if !ok || in == nil {
		return true
	}
	s.counts[in]++
	s.Total++
	if s.counts[in] >= propagateThreshold && !s.requested[in] {
		s.requested[in] = true
		a.propagate(s, in)
	}
	return true
}

// propagate extends the session across input port in: block the port
// if its peer is an end host (the attack host has been reached),
// otherwise relay the request to the upstream router.
func (a *RouterAgent) propagate(s *session, in *netsim.Port) {
	up := in.Far().Node()
	if a.d.isHost(up) {
		// Access router reached: shut the switch port (Sec. 5.2).
		in.BlockedIngress = true
		a.Blocks++
		a.d.recordCapture(Capture{
			Attacker: up.ID,
			Server:   s.server,
			Router:   a.Node.ID,
			Time:     a.d.sim.Now(),
		})
		return
	}
	m := &Message{Kind: Request, Server: s.server, Epoch: s.Epoch, Lease: a.d.Cfg.SessionLifetime}
	s.SentUpstream++
	a.Propagations++
	a.d.rec(trace.Propagated, int(a.Node.ID), int(up.ID), int(s.server), "")
	if a.d.deployed(up) {
		a.d.sendReliable(a.Node, up.ID, m, false, s.server)
		return
	}
	// Deployment gap: bridge it by flooding the request over routing
	// announcements until deploying routers are reached (Sec. 5.3).
	a.floodPiggyback(m, PiggybackRequest, in)
}

// floodPiggyback wraps m as a piggybacked announcement and sends it
// into the legacy region through port via.
func (a *RouterAgent) floodPiggyback(m *Message, kind MsgKind, via *netsim.Port) {
	fm := &Message{
		Kind:      kind,
		Server:    m.Server,
		Epoch:     m.Epoch,
		Origin:    a.Node.ID,
		Timestamp: a.d.sim.Now(),
		FloodID:   a.d.nextFloodID(),
	}
	if a.d.Cfg.EpochAuth {
		a.d.ctrlSeq++
		fm.Seq = a.d.ctrlSeq
		a.d.signCtrl(fm, 0)
	} else {
		fm.Sign(a.d.Cfg.AuthKey)
	}
	a.d.rec(trace.Piggybacked, int(a.Node.ID), int(via.Far().Node().ID), int(m.Server), kind.String())
	a.d.sendMsg(a.Node, via.Far().Node().ID, fm)
}

// LegacyAgent models a non-deploying router: it ignores honeypot
// sessions but, like any router, relays routing-protocol
// announcements — so piggybacked requests traverse it to reach
// deploying routers beyond (Sec. 5.3).
type LegacyAgent struct {
	Node *netsim.Node
	d    *Defense
	// seen dedups flood IDs under a hard cap: a spoofed-flood attack
	// slides the window instead of growing router memory without
	// bound.
	seen *bounded.Dedup
}

func newLegacyAgent(d *Defense, n *netsim.Node) *LegacyAgent {
	a := &LegacyAgent{Node: n, d: d, seen: bounded.NewDedup(d.Cfg.Budget.DedupEntries)}
	n.Handler = a.handleControl
	return a
}

func (a *LegacyAgent) handleControl(p *netsim.Packet, in *netsim.Port) {
	m, ok := p.Payload.(*Message)
	if !ok || p.Type != netsim.Control {
		return
	}
	if m.Kind != PiggybackRequest && m.Kind != PiggybackCancel {
		return // legacy routers ignore the defense proper
	}
	evBefore := a.seen.Evictions
	dup := a.seen.Check(m.FloodID)
	a.d.Sec.DedupEvictions += a.seen.Evictions - evBefore
	if dup {
		return
	}
	a.d.noteState()
	// Relay the announcement to every neighbor except the one it came
	// from and any end hosts.
	for _, pt := range a.Node.Ports() {
		if pt == in {
			continue
		}
		nb := pt.Far().Node()
		if a.d.isHost(nb) {
			continue
		}
		a.d.sendMsg(a.Node, nb.ID, m)
	}
}
