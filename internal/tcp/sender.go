// Package tcp implements a simplified Reno-style reliable transport
// on top of internal/netsim: slow start, congestion avoidance, fast
// retransmit on triple duplicate ACKs, retransmission timeouts with
// Jacobson RTT estimation, and cumulative ACKs. It exists because the
// paper's service and overhead models are TCP-shaped: spoofed floods
// degrade TCP throughput by dropping ACKs (Sec. 3), and roaming
// migrates connections between servers, forcing re-establishment and
// a return to slow start (Sec. 4 / Sec. 5.3's overhead accounting).
//
// The implementation is deliberately compact: segments are fixed-MSS
// packets counted in units of segments, the three-way handshake is
// collapsed into the simulator's Handshake packet (whose delivery
// semantics already model "only a genuine source completes setup"),
// and there is no flow control (receivers sink data).
package tcp

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/netsim"
)

// ack is the payload of ACK packets.
type ack struct {
	// Cum is the highest in-order segment received (cumulative).
	Cum int64
	// FlowID echoes the data flow the ACK belongs to.
	FlowID int
}

// Checkpoint is the per-connection state the roaming-honeypots scheme
// checkpoints to the client and forwards to the new server on
// migration (Sec. 4): the resume point of the byte stream. It rides
// the handshake packet's payload.
type Checkpoint struct {
	FlowID int
	// Cum is the cumulative segment the stream resumes after.
	Cum int64
}

const (
	// mss is the segment size in bytes, the experiments' packet size.
	mss = 500
	// initialWindow is the post-(re)establishment cwnd in segments, the
	// classic slow-start entry the paper's overhead argument depends
	// on.
	initialWindow = 1
	// minRTO and maxRTO clamp the retransmission timeout in seconds.
	minRTO, maxRTO = 0.2, 10
)

// SenderConfig tunes the congestion controller.
type SenderConfig struct {
	// MaxWindow caps cwnd in segments (default 64).
	MaxWindow float64
}

func (c *SenderConfig) fillDefaults() {
	if c.MaxWindow <= 0 {
		c.MaxWindow = 64
	}
}

// SenderStats aggregates transport accounting.
type SenderStats struct {
	// Retransmits counts fast retransmits plus timeout retransmits.
	Retransmits int64
	// Timeouts counts RTO firings.
	Timeouts int64
	// Migrations counts Retarget calls.
	Migrations int64
}

// Sender is one TCP flow's sending side, attached to a host node.
// Create through an Endpoint so inbound ACKs are dispatched.
type Sender struct {
	Cfg  SenderConfig
	Node *netsim.Node
	// FlowID identifies the flow end-to-end.
	FlowID int

	dst netsim.NodeID
	sim *des.Simulator

	// Reno state, in segment units.
	cwnd     float64
	ssthresh float64
	nextSeq  int64 // next segment to send (1-based)
	sendMax  int64 // highest segment ever sent
	cumAcked int64 // highest cumulatively acked segment
	dupAcks  int

	// RTT estimation (Jacobson/Karels).
	srtt, rttvar float64
	rtoBackoff   float64
	timedSeq     int64
	timedAt      float64

	rtoTimer des.Event
	running  bool

	Stats SenderStats
}

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Acked returns the cumulative acked segment count.
func (s *Sender) Acked() int64 { return s.cumAcked }

// GoodputBytes returns acked payload bytes.
func (s *Sender) GoodputBytes() int64 { return s.cumAcked * mss }

// Target returns the current destination.
func (s *Sender) Target() netsim.NodeID { return s.dst }

// Start opens the connection: a handshake packet to the destination,
// then slow start.
func (s *Sender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.cwnd = initialWindow
	s.ssthresh = s.Cfg.MaxWindow
	s.sendHandshake()
	s.pump()
	s.armRTO()
}

// Stop silences the sender (state is kept; Start resumes).
func (s *Sender) Stop() {
	s.running = false
	s.sim.Cancel(s.rtoTimer)
}

// Retarget migrates the connection to a new server: the checkpoint
// (the cumulative ACK point) carries over, a fresh handshake is sent,
// and the congestion window re-enters slow start — the paper's
// migration cost (Sec. 4: "re-establish TCP connections and re-enter
// TCP slow-start, losing their current TCP throughput").
func (s *Sender) Retarget(dst netsim.NodeID) {
	if dst == s.dst {
		return
	}
	s.dst = dst
	s.Stats.Migrations++
	s.cwnd = initialWindow
	s.ssthresh = s.Cfg.MaxWindow
	s.dupAcks = 0
	// Un-acked in-flight segments are retransmitted to the new server
	// starting from the checkpoint.
	s.nextSeq = s.cumAcked + 1
	s.timedSeq = 0
	if s.running {
		s.sendHandshake()
		s.pump()
		s.armRTO()
	}
}

func (s *Sender) sendHandshake() {
	pp := s.Node.NewPacket()
	*pp = netsim.Packet{
		Src:     s.Node.ID,
		TrueSrc: s.Node.ID,
		Dst:     s.dst,
		Size:    64,
		Type:    netsim.Handshake,
		FlowID:  s.FlowID,
		Legit:   true,
		Payload: &Checkpoint{FlowID: s.FlowID, Cum: s.cumAcked},
	}
	s.Node.Send(pp)
}

// pump transmits while the window allows.
func (s *Sender) pump() {
	if !s.running {
		return
	}
	for s.nextSeq <= s.cumAcked+int64(s.cwnd) {
		s.transmit(s.nextSeq)
		if s.nextSeq > s.sendMax {
			s.sendMax = s.nextSeq
		}
		s.nextSeq++
	}
}

func (s *Sender) transmit(seq int64) {
	// Time one segment per window for RTT sampling (Karn's rule:
	// never a retransmitted one).
	if s.timedSeq == 0 && seq == s.sendMax+1 {
		s.timedSeq = seq
		s.timedAt = s.sim.Now()
	}
	pp := s.Node.NewPacket()
	*pp = netsim.Packet{
		Src:     s.Node.ID,
		TrueSrc: s.Node.ID,
		Dst:     s.dst,
		Size:    mss,
		Type:    netsim.Data,
		FlowID:  s.FlowID,
		Seq:     seq,
		Legit:   true,
	}
	s.Node.Send(pp)
}

// handleAck processes a cumulative ACK.
func (s *Sender) handleAck(a *ack) {
	if !s.running {
		return
	}
	switch {
	case a.Cum > s.cumAcked:
		newly := a.Cum - s.cumAcked
		s.cumAcked = a.Cum
		s.dupAcks = 0
		s.rtoBackoff = 1
		// RTT sample.
		if s.timedSeq != 0 && a.Cum >= s.timedSeq {
			s.rttSample(s.sim.Now() - s.timedAt)
			s.timedSeq = 0
		}
		// Window growth.
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		if s.cwnd > s.Cfg.MaxWindow {
			s.cwnd = s.Cfg.MaxWindow
		}
		s.armRTO()
		s.pump()
	case a.Cum == s.cumAcked && s.sendMax > s.cumAcked:
		s.dupAcks++
		if s.dupAcks == 3 {
			// Fast retransmit + simplified recovery.
			s.Stats.Retransmits++
			s.ssthresh = s.cwnd / 2
			if s.ssthresh < 2 {
				s.ssthresh = 2
			}
			s.cwnd = s.ssthresh
			s.timedSeq = 0
			s.transmit(s.cumAcked + 1)
			s.armRTO()
		}
	}
}

func (s *Sender) rttSample(rtt float64) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
		return
	}
	delta := rtt - s.srtt
	if delta < 0 {
		delta = -delta
	}
	s.rttvar = 0.75*s.rttvar + 0.25*delta
	s.srtt = 0.875*s.srtt + 0.125*rtt
}

func (s *Sender) rto() float64 {
	rto := s.srtt + 4*s.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if s.rtoBackoff > 1 {
		rto *= s.rtoBackoff
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

func (s *Sender) armRTO() {
	s.sim.Cancel(s.rtoTimer)
	if s.sendMax <= s.cumAcked {
		return // nothing in flight
	}
	s.rtoTimer = s.sim.AfterNamed(s.rto(), "tcp-rto", s.onRTO)
}

func (s *Sender) onRTO() {
	if !s.running || s.sendMax <= s.cumAcked {
		return
	}
	s.Stats.Timeouts++
	s.Stats.Retransmits++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupAcks = 0
	if s.rtoBackoff < 1 {
		s.rtoBackoff = 1
	}
	s.rtoBackoff *= 2 // exponential backoff until new data is acked
	s.timedSeq = 0
	s.srtt = 0 // re-estimate after the outage
	s.transmit(s.cumAcked + 1)
	s.nextSeq = s.cumAcked + 2
	s.armRTO()
}

func (s *Sender) String() string {
	return fmt.Sprintf("tcp flow %d %v->%v cwnd=%.1f acked=%d", s.FlowID, s.Node.ID, s.dst, s.cwnd, s.cumAcked)
}
