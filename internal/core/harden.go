package core

import (
	"encoding/binary"

	"repro/internal/bounded"
	"repro/internal/hbp"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// Budget caps every piece of defense state that attacker-controlled
// packets can grow — the shared hbp.Budget (Sessions caps each
// router's honeypot session table here). The zero Budget is usable:
// each field falls back to a default, so the defense is *always*
// bounded (see DESIGN.md, "Threat model & graceful degradation").
type Budget = hbp.Budget

// ctrlChainLabel domain-separates the control chain's seed from the
// service hash chain, so holding client service tokens (the roaming
// pool's epoch keys, which subscribers receive) never lets anyone
// forge defense control traffic. The chain is indexed by honeypot
// epoch, so a key captured in epoch e (say, from a compromised
// router) derives only earlier epochs' keys — the same
// time-limited-token property the service chain gives clients.
const ctrlChainLabel = "hbp-ctrl-chain:"

// ctrlMACInput is the byte string the per-epoch control MAC covers:
// the canonical message encoding plus the addressed node. Binding the
// destination defeats cross-node replay — a captured genuine frame
// re-aimed at a different router (the byzantine amplify behavior)
// no longer verifies there, so a subverted node cannot arm sessions at
// routers the original sender never addressed. Piggybacked
// announcements are destination-unbound by design (they flood until
// any deploying router terminates them), so they bind the zero ID.
func ctrlMACInput(m *Message, dst netsim.NodeID) []byte {
	if m.Kind == PiggybackRequest || m.Kind == PiggybackCancel {
		dst = 0
	}
	b := m.encode()
	buf := make([]byte, len(b)+8)
	copy(buf, b)
	binary.BigEndian.PutUint64(buf[len(b):], uint64(dst))
	return buf
}

// epochFresh reports whether a control message's epoch is plausible at
// the present time. Per-epoch MACs make keys time-scoped, but a
// captured frame stays verifiable under its own epoch's key forever —
// so receivers additionally require the named epoch to match the live
// schedule. Requests may name the current epoch or the next one (the
// progressive scheme arms frontier routers slightly before the window
// opens); Cancels and Reports may trail by one epoch (retransmissions
// crossing the boundary). Without this check, a Request captured in a
// honeypot window and replayed in a serving window re-arms input
// debugging against live client traffic — the defense turned into a
// client-blocking weapon.
func (d *Defense) epochFresh(m *Message) bool {
	cur := d.pool.Epoch()
	switch m.Kind {
	case Request, PiggybackRequest:
		if cur < 0 {
			// Schedule not started yet; only the first epoch is plausible.
			return m.Epoch == 0
		}
		// The next epoch is plausible only under the progressive scheme
		// (frontier routers are armed slightly before the window opens);
		// otherwise accepting it would widen the replay surface for free.
		return m.Epoch == cur || (d.Cfg.Progressive && m.Epoch == cur+1)
	case Cancel, PiggybackCancel, Report:
		return m.Epoch == cur || m.Epoch == cur-1
	default:
		return true // acks only complete already-authenticated transfers
	}
}

// signCtrl attaches the per-epoch MAC, bound to the addressed node.
// Messages for epochs outside the chain (never produced by genuine
// senders) are left untagged and will be rejected by every receiver.
func (d *Defense) signCtrl(m *Message, dst netsim.NodeID) {
	if tag := d.auth.Tag(m.Epoch, ctrlMACInput(m, dst)); tag != nil {
		m.Tag = tag
	}
}

// verifyCtrl checks an incoming message's per-epoch MAC; dst is the
// verifying receiver's own node ID.
func (d *Defense) verifyCtrl(m *Message, dst netsim.NodeID) bool {
	return d.auth.Check(m.Epoch, ctrlMACInput(m, dst), m.Tag)
}

// newReplayFilter builds one receiving agent's anti-replay window from
// the configured budget.
func (d *Defense) newReplayFilter() *bounded.ReplayWindow {
	return bounded.NewReplayWindow(d.Cfg.Budget.ReplaySpan, d.Cfg.Budget.ReplayStreams)
}

// replayOK runs a sequenced frame through the receiver's anti-replay
// window, counting rejects. Unsequenced frames (legacy mode) and acks
// (idempotent by construction) pass.
func (d *Defense) replayOK(w *bounded.ReplayWindow, m *Message, node netsim.NodeID) bool {
	if !d.Cfg.EpochAuth || m.Seq == 0 || m.Kind == Ack {
		return true
	}
	if w.Accept(int64(m.Server), m.Seq) {
		return true
	}
	d.Sec.ReplayRejects++
	d.rec(trace.ReplayRejected, int(node), -1, int(m.Server), m.Kind.String())
	return false
}

// victimDistance is the routing distance from a router to the
// protected server — the session-eviction priority: sessions closer to
// the victim survive. Unroutable servers (forged IDs) return -1 and
// rank below every real session.
func (d *Defense) victimDistance(n *netsim.Node, server netsim.NodeID) int {
	return d.net.PathHops(n.ID, server)
}

// weakerSession reports whether session a ranks strictly below session
// b for eviction purposes. The shared hbp order (farther from the
// victim is weaker, unroutable counts as infinitely far, then fewer
// observed honeypot packets) is made total by breaking the remaining
// ties on the higher server ID, so the map-iteration order of the
// session table never influences which session is shed.
func weakerSession(a, b *session) bool {
	if w, tied := hbp.Weaker(&a.SessionCore, &b.SessionCore); !tied {
		return w
	}
	return a.server > b.server
}

// StateSize is the total live defense state: router sessions, legacy
// dedup entries and pending reliable transfers. The byzantine
// experiments sample it to show overload shedding keeps the sum under
// StateBudget for the whole run.
func (d *Defense) StateSize() int {
	n := len(d.pending) + d.openSessions
	//hbplint:ignore determinism commutative sum of a pure size getter; the total is order-independent.
	for _, l := range d.legacy {
		n += l.seen.Len()
	}
	return n
}

// StateBudget is the configured hard ceiling on StateSize given the
// current deployment.
func (d *Defense) StateBudget() int {
	return len(d.routers)*d.Cfg.Budget.Sessions +
		len(d.legacy)*d.Cfg.Budget.DedupEntries +
		d.Cfg.Budget.PendingTransfers
}

// PendingTransfers returns the current retransmit-table size — the
// leak indicator for reliable transfers not reclaimed on cancel,
// expiry or give-up.
func (d *Defense) PendingTransfers() int { return len(d.pending) }

// noteState updates the high-water mark after a state-growing
// mutation.
func (d *Defense) noteState() {
	d.StateMeter.Note(d.StateSize())
}
