package core

import (
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/trace"
)

const (
	// retryBackoff multiplies the retransmission timeout after each
	// attempt.
	retryBackoff = 2
	// maxRetries bounds retransmissions per message; after the budget
	// the sender gives up and counts it.
	maxRetries = 5
)

// pendingSend is one reliable control transfer in flight: the message,
// where it is going, and the retransmission timer that fires until an
// Ack with the matching sequence number arrives or the retry budget is
// exhausted.
type pendingSend struct {
	seq      int64
	from     *netsim.Node
	to       netsim.NodeID
	server   netsim.NodeID
	m        *Message
	attempts int // transmissions so far (1 after the initial send)
	timer    des.Event
}

// sendReliable transmits m from a node to a destination. When the
// reliable control plane is enabled the message carries a sequence
// number and is retransmitted with exponential backoff until acked;
// otherwise this is plain fire-and-forget (the paper's idealized
// control channel). sign re-signs the message (after the sequence
// number is assigned, since the tag covers it); server associates the
// transfer with a session so teardown can abandon stale retries.
func (d *Defense) sendReliable(from *netsim.Node, to netsim.NodeID, m *Message, sign bool, server netsim.NodeID) {
	// Under EpochAuth every message is sequenced (replay protection)
	// and carries the per-epoch MAC, reliable or not.
	if d.Cfg.Reliable || d.Cfg.EpochAuth {
		d.ctrlSeq++
		m.Seq = d.ctrlSeq
	}
	if d.Cfg.EpochAuth {
		d.signCtrl(m, to)
	} else if sign {
		m.Sign(d.Cfg.AuthKey)
	}
	if !d.Cfg.Reliable {
		d.sendMsg(from, to, m)
		return
	}
	if len(d.pending) >= d.Cfg.Budget.PendingTransfers {
		// Retransmit table at budget: degrade to fire-and-forget
		// rather than grow without bound. The receiver still acks; the
		// ack just finds nothing to complete.
		d.Sec.PendingOverflows++
		d.sendMsg(from, to, m)
		return
	}
	ps := &pendingSend{seq: m.Seq, from: from, to: to, server: server, m: m, attempts: 1}
	d.pending[ps.seq] = ps
	d.noteState()
	d.sendMsg(from, to, m)
	ps.timer = d.sim.After(d.Cfg.AckTimeout, func() { d.retransmit(ps) })
}

// retransmit handles one ack-timeout expiry for ps.
func (d *Defense) retransmit(ps *pendingSend) {
	if d.pending[ps.seq] != ps {
		return // completed or abandoned meanwhile
	}
	if ps.from.Down() {
		// The sender crashed after this timer was armed; its
		// retransmission state died with it.
		delete(d.pending, ps.seq)
		return
	}
	if ps.attempts > maxRetries {
		delete(d.pending, ps.seq)
		d.Ctrl.GiveUps++
		return
	}
	ps.attempts++
	d.Ctrl.Retransmissions++
	d.rec(trace.Retransmitted, int(ps.from.ID), int(ps.to), int(ps.server), ps.m.Kind.String())
	d.sendMsg(ps.from, ps.to, ps.m)
	// Exponential backoff: timeout doubles (retryBackoff^k) with every
	// attempt so a congested control channel is not made worse.
	rto := d.Cfg.AckTimeout
	for i := 1; i < ps.attempts; i++ {
		rto *= retryBackoff
	}
	ps.timer = d.sim.After(rto, func() { d.retransmit(ps) })
}

// handleAck completes the pending transfer acknowledged by m. Late or
// duplicate acks are harmless no-ops.
func (d *Defense) handleAck(m *Message) {
	d.Ctrl.AcksReceived++
	ps, ok := d.pending[m.Seq]
	if !ok {
		return
	}
	ps.timer.Cancel()
	delete(d.pending, m.Seq)
}

// maybeAck returns an Ack for a sequenced message, after it has been
// authenticated and processed. Hop-by-hop acks ride the TTL-255
// adjacency check; acks crossing multiple hops (direct requests,
// reports) carry an HMAC tag like any multi-hop message.
func (d *Defense) maybeAck(n *netsim.Node, m *Message, p *netsim.Packet) {
	if m.Seq == 0 || m.Kind == Ack || !d.Cfg.Reliable {
		return
	}
	am := &Message{Kind: Ack, Server: m.Server, Epoch: m.Epoch, Origin: n.ID, Seq: m.Seq}
	if d.Cfg.EpochAuth {
		// Acks are authenticated like everything else: a forged ack
		// would silently suppress a genuine retransmission.
		d.signCtrl(am, p.Src)
	} else if p.TTL != netsim.DefaultTTL {
		am.Sign(d.Cfg.AuthKey)
	}
	d.Ctrl.AcksSent++
	d.sendMsg(n, p.Src, am)
}

// abandonPending stops and forgets every pending transfer for which
// match returns true, without counting a give-up (the caller knows
// they are moot: the session closed or the sender crashed).
func (d *Defense) abandonPending(match func(*pendingSend) bool) {
	// Sorted sweep. A cancel touches no heap entry and delete is
	// order-free, but the body also calls the caller's match, which the
	// determinism analyzer cannot prove order-independent: over the map
	// itself this loop draws a diagnostic. Sorted keys keep the sweep
	// deterministic whatever match does.
	seqs := make([]int64, 0, len(d.pending))
	for seq := range d.pending {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if ps := d.pending[seq]; match(ps) {
			ps.timer.Cancel()
			delete(d.pending, seq)
		}
	}
}
