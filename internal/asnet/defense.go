package asnet

import (
	"sort"

	"repro/internal/bounded"
	"repro/internal/hbp"
	"repro/internal/metrics"
)

// IngressMode selects how an HSM identifies the ingress edge router
// (and thus the upstream AS) of diverted honeypot traffic (Sec. 5.1).
type IngressMode int

const (
	// Marking is destination-end provider marking: edge routers stamp
	// their ID into the (to-be-discarded) honeypot traffic. Cheap and
	// inline.
	Marking IngressMode = iota
	// Tunneling diverts honeypot traffic into the HSM through GRE
	// tunnels from every edge router; ingress is inferred from the
	// tunnel. Slightly slower per packet (an extra traversal to the
	// HSM) but needs no header bits.
	Tunneling
)

func (m IngressMode) String() string {
	if m == Tunneling {
		return "tunneling"
	}
	return "marking"
}

// Config parameterizes the inter-AS defense.
type Config struct {
	// Mode selects the ingress-identification mechanism.
	Mode IngressMode
	// IntraASTime abstracts the router-level traceback inside an
	// attack-hosting AS (modelled in detail by internal/core); when a
	// stub AS identifies locally originated honeypot traffic, the
	// attacker is captured after this delay (default 0.5 s).
	IntraASTime float64
	// ActivationThreshold is the honeypot packet count needed before
	// the server triggers back-propagation (default 1).
	ActivationThreshold int
	// SessionLifetime is the safety expiry of HSM sessions (default
	// 2 epochs, set at deployment time).
	SessionLifetime float64
	// Progressive enables the intermediate-AS list (Sec. 6).
	Progressive bool
	// Rho is the ρ retention threshold (default 3).
	Rho int
	// Tau is the server's per-hop setup estimate for scheduling
	// direct requests (default = graph CtrlDelay × 2).
	Tau float64
	// Auth enables the authenticated control plane: per-epoch MACs on
	// every HonSesReq/HonSesCancel/report (derived from a dedicated
	// control hash chain seeded by AuthKey), tag checks on piggybacked
	// announcements, and edge-router-mark validation. Off by default,
	// preserving the unhardened model bit for bit.
	Auth bool
	// AuthKey seeds the control chain under Auth.
	AuthKey []byte
	// Budget caps HSM session tables and legacy dedup sets. Zero
	// fields fall back to defaults — state is always bounded.
	Budget Budget
	// Watchdog enables the server-side stall detector: if the honeypot
	// keeps drawing attack traffic but captures stop advancing, the
	// session tree is re-seeded from the progressive frontier list.
	Watchdog bool
	// WatchdogInterval is the stall-check period (default 1 s).
	WatchdogInterval float64

	// IntraAS selects the intra-AS phase model: how a stub AS that
	// identified locally originated honeypot traffic locates and stops
	// the zombie. Nil selects FixedDelay (the paper's abstraction: a
	// capture after IntraASTime). EmbeddedIntraAS instead instantiates
	// a real router-level core.Defense per stub AS on the same clock
	// (see DESIGN.md, "Plane unification").
	IntraAS IntraASModel
}

func (c *Config) fillDefaults(g *Graph, epochLen float64) {
	if c.IntraASTime <= 0 {
		c.IntraASTime = 0.5
	}
	if c.ActivationThreshold <= 0 {
		c.ActivationThreshold = 1
	}
	if c.SessionLifetime <= 0 {
		c.SessionLifetime = 2 * epochLen
	}
	if c.Rho <= 0 {
		c.Rho = 3
	}
	if c.Tau <= 0 {
		c.Tau = 2 * g.CtrlDelay
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = 1
	}
	if c.IntraAS == nil {
		c.IntraAS = FixedDelay{}
	}
	c.Budget.FillDefaults()
}

// Capture records an attacker stopped by intra-AS traceback in its
// home AS.
type Capture struct {
	Attacker *Attacker
	AS       ASID
	Time     float64
}

// Defense is one inter-AS honeypot back-propagation deployment.
type Defense struct {
	Cfg Config
	g   *Graph

	servers []*Server
	// CaptureLog records captures in time order and fires the promoted
	// OnCapture hook; StateMeter tracks the promoted PeakState
	// high-water mark of StateSize over the run. Both are shared with
	// the router plane (internal/hbp).
	hbp.CaptureLog[Capture]
	hbp.StateMeter

	// MsgSent counts HSM control messages (requests, cancels,
	// reports, piggybacks).
	MsgSent int64
	// IngressLookups counts ingress identifications (the per-packet
	// work of the marking/tunneling mechanism).
	IngressLookups int64
	// LeaseExpiries counts sessions closed by their lease rather than
	// an explicit cancel — the self-healing path for lost teardowns.
	LeaseExpiries int64
	floodSeq      int64

	// Sec aggregates the adversarial-robustness counters (auth
	// rejects, evictions, mark-spoof rejects, ...).
	Sec metrics.SecurityStats

	// auth holds the per-epoch control MAC keys under Cfg.Auth
	// (domain-separated from the router plane's chain).
	auth *hbp.Auth
	// ctrlTap, when set, observes every signed outgoing control
	// message — the hook the replay adversary listens on.
	ctrlTap func(m *ctrlMsg, to ASID)
}

// NewDefense builds a defense over the graph. epochLen feeds default
// session lifetimes.
func NewDefense(g *Graph, epochLen float64, cfg Config) *Defense {
	cfg.fillDefaults(g, epochLen)
	return &Defense{Cfg: cfg, g: g, auth: hbp.NewAuth(asnetChainLabel, cfg.AuthKey, "asnet-ctrl-mac")}
}

// DeployAS installs an HSM in the AS.
func (d *Defense) DeployAS(a *AS) *HSM {
	if a.hsm != nil {
		return a.hsm
	}
	a.legacy = nil
	a.hsm = &HSM{as: a, d: d, sessions: map[*Server]*hsmSession{}}
	return a.hsm
}

// DeployLegacy marks the AS as non-deploying; it relays piggybacked
// announcements only.
func (d *Defense) DeployLegacy(a *AS) *Legacy {
	if a.legacy != nil {
		return a.legacy
	}
	a.hsm = nil
	a.legacy = &Legacy{as: a, d: d, seen: bounded.NewDedup(d.Cfg.Budget.DedupEntries)}
	return a.legacy
}

// DeployAll installs HSMs everywhere.
func (d *Defense) DeployAll() {
	for _, a := range d.g.ases {
		d.DeployAS(a)
	}
}

func (d *Defense) recordCapture(c Capture) {
	d.CaptureLog.Record(c)
}

const (
	// markDelay is the extra ingress-identification latency under
	// Marking.
	markDelay = 0.001
	// tunnelDelay is the extra latency under Tunneling: the diverted
	// packet's detour through the tunnel to the HSM.
	tunnelDelay = 0.015
)

// ingressDelay is the latency of identifying one packet's ingress
// point under the configured mode.
func (d *Defense) ingressDelay() float64 {
	if d.Cfg.Mode == Tunneling {
		return tunnelDelay
	}
	return markDelay
}

// sendCtrl delivers a control thunk to a target AS after the control
// latency for the AS-hop distance from `from` (1 for neighbors; the
// server's direct messages cross several hops).
func (d *Defense) sendCtrl(from, to ASID, deliver func()) {
	hops := d.g.Hops(from, to)
	if hops < 0 {
		return
	}
	if hops == 0 {
		hops = 1
	}
	d.MsgSent++
	d.g.Sim.After(float64(hops)*d.g.CtrlDelay, deliver)
}

// hsmSession is a honeypot session at one HSM: the record of the
// protected server plus the set of upstream ASes honeypot traffic
// entered from (Sec. 5.1). The lifecycle fields (epoch, lease,
// eviction rank) live in the shared hbp.SessionCore; the AS plane
// adds its substrate — the protected server and per-neighbor ingress
// counters.
type hsmSession struct {
	hbp.SessionCore
	server *Server
	// ingress counts honeypot packets per upstream neighbor AS.
	ingress map[ASID]int
	// requested marks neighbors the session was propagated to.
	requested map[ASID]bool
	// intraAS marks that local-origin traffic was seen and intra-AS
	// traceback is running (stub ASes retain their session for it).
	intraAS bool
}

// HSM is an AS's honeypot session manager.
type HSM struct {
	as       *AS
	d        *Defense
	sessions map[*Server]*hsmSession

	SessionsCreated int64
	Propagations    int64
}

// HasSession reports whether a session for the server is active.
func (h *HSM) HasSession(s *Server) bool {
	_, ok := h.sessions[s]
	return ok
}

// ActiveSessions returns the live session count.
func (h *HSM) ActiveSessions() int { return len(h.sessions) }

// openSession creates or refreshes the session. A full table runs
// admission control: the incoming session is ranked against the
// weakest resident by victim distance, and either a resident is shed
// or the request refused — the table never grows past its budget.
func (h *HSM) openSession(s *Server, epoch int) {
	sess, ok := h.sessions[s]
	if !ok {
		dist := h.d.g.Hops(h.as.ID, s.Home.ID)
		if len(h.sessions) >= h.d.Cfg.Budget.Sessions && !h.evictWeaker(dist, s) {
			h.d.Sec.AdmissionRejects++
			return
		}
		sess = &hsmSession{
			SessionCore: hbp.SessionCore{Epoch: epoch, Dist: dist},
			server:      s,
			ingress:     map[ASID]int{},
			requested:   map[ASID]bool{},
		}
		h.sessions[s] = sess
		h.SessionsCreated++
		h.d.noteState()
	} else {
		sess.Epoch = epoch
	}
	sess.RearmLease(h.d.g.Sim, h.d.Cfg.SessionLifetime, "asnet-session-lease", func() {
		h.d.LeaseExpiries++
		h.closeSession(s, false)
	})
}

// closeSession tears the session down, forwarding cancels and
// emitting the progressive frontier report.
func (h *HSM) closeSession(s *Server, propagate bool) {
	sess, ok := h.sessions[s]
	if !ok {
		return
	}
	// A stub AS holding an in-progress intra-AS traceback refuses
	// cancels until it completes (Sec. 5.1). Lease-driven closes pass:
	// the lease was extended past the traceback when it started, so by
	// the time it fires the retention is moot and honoring it would
	// leak the session.
	if sess.intraAS && !h.as.Transit && propagate {
		return
	}
	delete(h.sessions, s)
	sess.Drop(h.d.g.Sim)
	if !propagate {
		return
	}
	// Cancels fan out in sorted neighbor order so flood sequence
	// numbers — and therefore event ordering — are identical across
	// runs (the intra-node counterpart sorts ports the same way).
	nbs := make([]ASID, 0, len(sess.requested))
	for nb := range sess.requested {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	for _, nb := range nbs {
		nbAS := h.d.g.AS(nb)
		if nbAS.Deployed() {
			target := nbAS.hsm
			cm := &ctrlMsg{op: opClose, server: s, epoch: sess.Epoch, origin: h.as.ID}
			h.d.sendAuthed(h.as.ID, nb, cm, target.handleCtrl)
		} else if nbAS.legacy != nil {
			h.d.floodSeq++
			pb := &piggyback{kind: pbCancel, server: s, epoch: sess.Epoch, id: h.d.floodSeq}
			h.d.signPiggyback(pb)
			nbAS.legacy.relay(pb, h.as.ID)
			h.d.MsgSent++
		}
	}
	if h.d.Cfg.Progressive && sess.SentUpstream == 0 && h.as.Transit {
		rm := &ctrlMsg{op: opReport, server: s, epoch: sess.Epoch, origin: h.as.ID, sentAt: h.d.g.Sim.Now()}
		h.d.sendAuthed(h.as.ID, s.Home.ID, rm, s.handleCtrl)
	}
}

// observe processes one honeypot-destined packet crossing (or
// terminating in) this AS while a session is active. from is the
// upstream neighbor AS, or -1 when the packet originated inside this
// AS.
func (h *HSM) observe(s *Server, from ASID, origin *Attacker) {
	sess, ok := h.sessions[s]
	if !ok {
		return
	}
	sim := h.d.g.Sim
	if from < 0 {
		// Locally originated attack traffic: this AS hosts the
		// attacker. Run the intra-AS phase (abstract fixed delay, or an
		// embedded router-level traceback — Config.IntraAS) to locate
		// the zombie and shut its access port.
		if sess.intraAS {
			return
		}
		sess.intraAS = true
		model := h.d.Cfg.IntraAS
		// Stub-AS retention (Sec. 5.1) expressed as a lease extension:
		// the session must outlive the in-progress traceback, not just
		// the honeypot epoch, so re-arm its lease past the phase
		// model's completion horizon.
		s2 := s
		sess.RearmLease(sim, model.Horizon(h, origin), "asnet-session-lease", func() {
			h.d.LeaseExpiries++
			h.closeSession(s2, false)
		})
		model.Begin(h, origin, func() {
			if origin.captured {
				return
			}
			origin.captured = true
			h.d.recordCapture(Capture{Attacker: origin, AS: h.as.ID, Time: sim.Now()})
			// Intra-AS traceback done: the retained stub session can
			// now be removed (the MAC filter persists in the model).
			sess.intraAS = false
			h.closeSession(s, false)
		})
		return
	}
	// Under the authenticated control plane, edge-router marks are
	// validated: a mark naming a non-neighbor AS is a spoof (the real
	// ingress edge router would have stamped itself) and is discarded
	// before it can poison the propagation set.
	if h.d.Cfg.Auth && !h.as.hasNeighbor(from) {
		h.d.Sec.MarkSpoofRejects++
		return
	}
	// Ingress identification (marking or tunnel divert) takes a
	// moment; then propagate the session upstream if new.
	h.d.IngressLookups++
	sim.After(h.d.ingressDelay(), func() {
		cur, ok := h.sessions[s]
		if !ok || cur != sess {
			return
		}
		sess.ingress[from]++
		sess.Total++
		if sess.requested[from] {
			return
		}
		sess.requested[from] = true
		sess.SentUpstream++
		h.Propagations++
		h.propagate(s, sess.Epoch, from)
	})
}

func (h *HSM) propagate(s *Server, epoch int, to ASID) {
	nbAS := h.d.g.AS(to)
	if nbAS.Deployed() {
		target := nbAS.hsm
		m := &ctrlMsg{op: opOpen, server: s, epoch: epoch, origin: h.as.ID}
		h.d.sendAuthed(h.as.ID, to, m, target.handleCtrl)
		return
	}
	if nbAS.legacy != nil {
		// Piggyback over routing announcements across the deployment
		// gap (Sec. 5.3).
		h.d.floodSeq++
		h.d.MsgSent++
		pb := &piggyback{kind: pbRequest, server: s, epoch: epoch, id: h.d.floodSeq}
		h.d.signPiggyback(pb)
		nbAS.legacy.relay(pb, h.as.ID)
	}
}

// receivePiggyback terminates a flood at a deploying AS. Under Auth
// the flood crossed unverifying legacy relays, so the tag is checked
// here, at the trust boundary.
func (h *HSM) receivePiggyback(p *piggyback) {
	if !h.d.piggybackOK(p) {
		return
	}
	switch p.kind {
	case pbRequest:
		h.openSession(p.server, p.epoch)
	case pbCancel:
		h.closeSession(p.server, true)
	}
}

type pbKind int

const (
	pbRequest pbKind = iota
	pbCancel
)

// piggyback is a request/cancel bridged over routing announcements.
type piggyback struct {
	kind   pbKind
	server *Server
	epoch  int
	id     int64
	// tag authenticates the announcement across unverifying legacy
	// relays (per-epoch MAC; only set under Config.Auth).
	tag []byte
}

// encode is the canonical byte string the piggyback tag covers.
func (p *piggyback) encode() []byte {
	m := ctrlMsg{op: ctrlOp(p.kind) + 8, server: p.server, epoch: p.epoch, origin: ASID(p.id)}
	return m.encode()
}

// Legacy is a non-deploying AS: it relays piggybacked announcements
// to all neighbors (routing messages propagate regardless of defense
// support) and does nothing else.
type Legacy struct {
	as *AS
	d  *Defense
	// seen dedups flood IDs under a hard cap: a spoofed-flood attack
	// slides the window instead of growing AS memory without bound.
	seen *bounded.Dedup
}

func (l *Legacy) relay(p *piggyback, from ASID) {
	evBefore := l.seen.Evictions
	dup := l.seen.Check(p.id)
	l.d.Sec.DedupEvictions += l.seen.Evictions - evBefore
	if dup {
		return
	}
	l.d.noteState()
	for _, nb := range l.as.neighbors {
		if nb.ID == from {
			continue
		}
		nb := nb
		l.d.MsgSent++
		l.d.g.Sim.After(l.d.g.CtrlDelay, func() {
			if nb.Deployed() {
				nb.hsm.receivePiggyback(p)
			} else if nb.legacy != nil {
				nb.legacy.relay(p, l.as.ID)
			}
		})
	}
}
