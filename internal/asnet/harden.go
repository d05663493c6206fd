package asnet

import (
	"encoding/binary"

	"repro/internal/hbp"
)

// Budget caps the inter-AS defense state that attacker-controlled
// packets can grow — the shared hbp.Budget (Sessions caps each HSM's
// session table, DedupEntries each legacy AS's piggyback dedup set).
// The zero Budget falls back to defaults, so HSM state is always
// bounded (see DESIGN.md, "Threat model & graceful degradation").
type Budget = hbp.Budget

// asnetChainLabel domain-separates the inter-AS control chain from
// both the service chain and the intra-AS control chain.
const asnetChainLabel = "hbp-asnet-ctrl:"

// ctrlOp enumerates HSM control operations. The thunk-based control
// channel of the unhardened model carries these as typed, taggable
// messages once Auth is on — a forger has to produce a frame that
// verifies, not a Go closure.
type ctrlOp int

const (
	opOpen ctrlOp = iota
	opClose
	opReport
)

func (o ctrlOp) String() string {
	switch o {
	case opOpen:
		return "open"
	case opClose:
		return "close"
	default:
		return "report"
	}
}

// ctrlMsg is one authenticated inter-AS control message (the paper's
// HonSesReq / HonSesCancel plus the progressive report).
type ctrlMsg struct {
	op     ctrlOp
	server *Server
	epoch  int
	origin ASID
	sentAt float64
	tag    []byte
}

// encode is the canonical byte string the per-epoch MAC covers.
func (m *ctrlMsg) encode() []byte {
	buf := make([]byte, 6*8)
	fields := []int64{
		int64(m.op),
		int64(m.server.Home.ID),
		int64(serverMember(m.server)),
		int64(m.epoch),
		int64(m.origin),
		int64(m.sentAt * 1e3),
	}
	for i, v := range fields {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(v))
	}
	return buf
}

func serverMember(s *Server) int {
	if s.Sched == nil {
		return 0
	}
	return s.Sched.Member
}

// ensureChain builds (or extends) the control chain to cover the given
// epoch count. Called at server registration, when the schedule length
// is known.
func (d *Defense) ensureChain(epochs int) {
	if !d.Cfg.Auth {
		return
	}
	if err := d.auth.Ensure(epochs); err != nil {
		panic(err) // epochs<=0 is a construction-order bug, not runtime input
	}
}

// signCtrl attaches the per-epoch MAC.
func (d *Defense) signCtrl(m *ctrlMsg) {
	if !d.Cfg.Auth {
		return
	}
	if tag := d.auth.Tag(m.epoch, m.encode()); tag != nil {
		m.tag = tag
	}
}

// authOK verifies an incoming control message, counting rejects.
func (d *Defense) authOK(m *ctrlMsg) bool {
	if !d.Cfg.Auth {
		return true
	}
	if d.auth.Check(m.epoch, m.encode(), m.tag) {
		return true
	}
	d.Sec.AuthRejects++
	return false
}

// signPiggyback / piggybackOK authenticate flooded announcements.
// Legacy ASes relay them unverified (they run no defense), but the
// deploying AS that terminates the flood checks the tag before
// touching session state.
func (d *Defense) signPiggyback(p *piggyback) {
	if !d.Cfg.Auth {
		return
	}
	if tag := d.auth.Tag(p.epoch, p.encode()); tag != nil {
		p.tag = tag
	}
}

func (d *Defense) piggybackOK(p *piggyback) bool {
	if !d.Cfg.Auth {
		return true
	}
	if d.auth.Check(p.epoch, p.encode(), p.tag) {
		return true
	}
	d.Sec.AuthRejects++
	return false
}

// sendAuthed signs and delivers a typed control message to the
// receiver-side dispatch deliver.
func (d *Defense) sendAuthed(from, to ASID, m *ctrlMsg, deliver func(*ctrlMsg)) {
	d.signCtrl(m)
	if d.ctrlTap != nil {
		d.ctrlTap(m, to)
	}
	d.sendCtrl(from, to, func() { deliver(m) })
}

// handleCtrl is the HSM's authenticated control entry point.
func (h *HSM) handleCtrl(m *ctrlMsg) {
	if !h.d.authOK(m) {
		return
	}
	switch m.op {
	case opOpen:
		h.openSession(m.server, m.epoch)
	case opClose:
		// A cancel is only valid for the epoch it names: a replayed
		// cancel from an earlier epoch (its tag still verifies for
		// *that* epoch) must not tear down the current session.
		if h.d.Cfg.Auth {
			if sess, ok := h.sessions[m.server]; ok && sess.Epoch != m.epoch {
				h.d.Sec.ReplayRejects++
				return
			}
		}
		h.closeSession(m.server, true)
	}
}

// handleCtrl is the server's authenticated report entry point.
func (s *Server) handleCtrl(m *ctrlMsg) {
	if !s.d.authOK(m) {
		return
	}
	if m.op != opReport {
		return
	}
	s.Report(m.origin, m.epoch, m.sentAt)
}

// weakerHSMSession is the eviction order (the same shared hbp order as
// core.weakerSession: farther from the victim is weaker, unreachable
// counts as infinitely far, then fewer observed packets), made total
// by breaking the remaining ties on the higher (home AS, member)
// identity. Deterministic regardless of map iteration.
func weakerHSMSession(a, b *hsmSession) bool {
	if w, tied := hbp.Weaker(&a.SessionCore, &b.SessionCore); !tied {
		return w
	}
	if a.server.Home.ID != b.server.Home.ID {
		return a.server.Home.ID > b.server.Home.ID
	}
	return serverMember(a.server) > serverMember(b.server)
}

// evictWeaker sheds the weakest resident session iff the incoming one
// (at distance dist, for server s) ranks strictly above it. Shedding
// is local — no cancels propagate — so budget pressure cannot be
// turned into a teardown amplifier.
func (h *HSM) evictWeaker(dist int, s *Server) bool {
	incoming := &hsmSession{SessionCore: hbp.SessionCore{Dist: dist}, server: s}
	evicted, ok := hbp.EvictWeakest(h.sessions, weakerHSMSession, incoming,
		func(sess *hsmSession) *Server { return sess.server })
	if !ok {
		return false
	}
	evicted.Drop()
	h.d.Sec.SessionEvictions++
	return true
}

// hasNeighbor reports whether the AS with the given ID is a direct
// neighbor — the validity test for an edge-router mark.
func (a *AS) hasNeighbor(id ASID) bool {
	for _, nb := range a.neighbors {
		if nb.ID == id {
			return true
		}
	}
	return false
}

// StateSize is the total live defense state across every HSM and
// legacy relay.
func (d *Defense) StateSize() int {
	n := 0
	for _, a := range d.g.ases {
		if a.hsm != nil {
			n += len(a.hsm.sessions)
		}
		if a.legacy != nil {
			n += a.legacy.seen.Len()
		}
	}
	return n
}

// StateBudget is the configured ceiling on StateSize for the current
// deployment.
func (d *Defense) StateBudget() int {
	n := 0
	for _, a := range d.g.ases {
		if a.hsm != nil {
			n += d.Cfg.Budget.Sessions
		}
		if a.legacy != nil {
			n += d.Cfg.Budget.DedupEntries
		}
	}
	return n
}

// noteState updates the high-water mark after a state-growing
// mutation.
func (d *Defense) noteState() {
	d.StateMeter.Note(d.StateSize())
}

// Adversary is a subverted AS attacking the inter-AS defense without
// key material: it forges session requests and cancels, spoofs
// edge-router marks, and replays captured control frames. Its success
// rate is the measure of the authentication layer.
type Adversary struct {
	d    *Defense
	From *AS

	ring []*ctrlMsg

	// Injected counts hostile frames put on the control channel.
	Injected int64
}

// NewAdversary subverts the given AS. Captured genuine control frames
// (for replay) accumulate from the moment of subversion.
func NewAdversary(d *Defense, from *AS) *Adversary {
	adv := &Adversary{d: d, From: from}
	prev := d.ctrlTap
	d.ctrlTap = func(m *ctrlMsg, to ASID) {
		if prev != nil {
			prev(m, to)
		}
		// The subverted AS overhears control traffic it originates,
		// receives or relays; a global tap overapproximates that —
		// the strongest replay adversary the model can host.
		if len(adv.ring) < 64 {
			adv.ring = append(adv.ring, m)
		}
	}
	return adv
}

// ForgeOpen injects a fabricated HonSesReq (garbage tag) for server s
// at the target AS.
func (adv *Adversary) ForgeOpen(target *AS, s *Server, epoch int) {
	adv.forge(target, s, epoch, opOpen)
}

// ForgeCancel injects a fabricated HonSesCancel (garbage tag) for
// server s at the target AS.
func (adv *Adversary) ForgeCancel(target *AS, s *Server, epoch int) {
	adv.forge(target, s, epoch, opClose)
}

func (adv *Adversary) forge(target *AS, s *Server, epoch int, op ctrlOp) {
	if target.hsm == nil {
		return
	}
	adv.Injected++
	m := &ctrlMsg{op: op, server: s, epoch: epoch, origin: adv.From.ID,
		sentAt: adv.d.g.Sim.Now(), tag: []byte("forged-tag-no-key-material")}
	hsm := target.hsm
	adv.d.sendCtrl(adv.From.ID, target.ID, func() { hsm.handleCtrl(m) })
}

// SpoofMark injects an attack observation at the target AS whose
// edge-router mark claims the (arbitrary) ingress AS `claimed` — the
// spoofed-mark attack against destination-end marking.
func (adv *Adversary) SpoofMark(target *AS, s *Server, claimed ASID) {
	if target.hsm == nil {
		return
	}
	adv.Injected++
	target.hsm.observe(s, claimed, nil)
}

// Replay re-injects the i-th captured genuine control frame (tag and
// all) at the target AS. Returns false if nothing has been captured
// yet.
func (adv *Adversary) Replay(target *AS, i int) bool {
	if len(adv.ring) == 0 || target.hsm == nil {
		return false
	}
	adv.Injected++
	m := adv.ring[i%len(adv.ring)]
	hsm := target.hsm
	adv.d.sendCtrl(adv.From.ID, target.ID, func() { hsm.handleCtrl(m) })
	return true
}

// Captured returns how many genuine control frames the adversary has
// overheard.
func (adv *Adversary) Captured() int { return len(adv.ring) }
