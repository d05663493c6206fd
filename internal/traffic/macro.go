package traffic

import (
	"repro/internal/des"
	"repro/internal/netsim"
)

// ExpansionOracle decides where a macro flow's next packet
// materializes. Expand returns the node at which the aggregated
// member's packet enters per-packet simulation and the ingress port
// it appears to arrive on (nil ingress = no port: locally originated,
// or from a reserved endpoint not yet built; see netsim.Node.Inject).
// A nil node skips the emission entirely — the flow stays aggregated
// past links nobody observes — and is counted in MacroFlow.Skipped.
//
// Implementations must derive their answer from topology and
// schedule state local to the flow's shard: an oracle that reads
// another shard's mutable state races under parallel execution.
type ExpansionOracle interface {
	Expand(member, dst netsim.NodeID) (*netsim.Node, *netsim.Port)
}

// MacroFlow aggregates a population of member hosts into one
// rate-based flow. Instead of one CBR agent (and one pending event)
// per host, the flow schedules one event per aggregate packet and
// round-robins the member attribution, expanding to a concrete
// packet only at the node its oracle names — a bottleneck link, a
// honeypot-armed router — so background traffic costs O(flows), not
// O(hosts), while every observed packet still carries a real
// member's addressing.
//
// Rate is the aggregate rate of the whole population: sweeping the
// member count at fixed Rate (the paper's dispersion sweeps) keeps
// the event load constant.
type MacroFlow struct {
	// Sim drives the flow; it must be the shard simulator of the part
	// whose nodes the oracle expands at.
	Sim *des.Simulator
	// Members are the aggregated hosts, attributed round-robin.
	Members []netsim.NodeID
	// Rate is the aggregate sending rate in bits/s.
	Rate float64
	// Size is the packet size in bytes.
	Size int
	// Dest returns the destination for the next packet. Required.
	Dest func() netsim.NodeID
	// Source returns the claimed source for the member's next packet;
	// nil means the member's true ID (no spoofing).
	Source func(member netsim.NodeID) netsim.NodeID
	// Oracle picks the expansion point. Required.
	Oracle ExpansionOracle
	// Legit is the ground-truth label stamped on packets.
	Legit bool
	// Type is the packet type (default Data).
	Type netsim.PacketType
	// FlowID tags the flow.
	FlowID int
	// Jitter, if non-nil, supplies a phase offset in [0, interval) for
	// the first packet. Poisson, if non-nil, draws inter-packet gaps
	// exponentially with mean Interval().
	Jitter  *des.RNG
	Poisson *des.RNG

	// Sent counts packets materialized; Skipped counts emissions the
	// oracle suppressed (nil expansion point).
	Sent    int64
	Skipped int64

	running bool
	// gen rides in the typed event's kind byte: bumping it on
	// Start/Stop strands stale ticks without touching the heap.
	gen  uint8
	next int
	seq  int64
}

// Interval returns the aggregate inter-packet gap implied by Rate and
// Size.
func (f *MacroFlow) Interval() float64 { return float64(f.Size*8) / f.Rate }

// Running reports whether the flow is emitting.
func (f *MacroFlow) Running() bool { return f.running }

// Len returns the current member count.
func (f *MacroFlow) Len() int { return len(f.Members) }

// Start begins (or resumes) emission at the current simulation time.
// Starting a running flow is a no-op.
func (f *MacroFlow) Start() {
	if f.running {
		return
	}
	if f.Dest == nil || f.Oracle == nil {
		panic("traffic: macro flow needs Dest and Oracle")
	}
	if f.Rate <= 0 || f.Size <= 0 {
		panic("traffic: macro flow needs positive rate and size")
	}
	if f.Sim == nil {
		panic("traffic: macro flow needs a shard simulator")
	}
	if len(f.Members) == 0 {
		panic("traffic: macro flow without members")
	}
	f.running = true
	f.gen++
	first := 0.0
	if f.Jitter != nil {
		first = f.Jitter.Uniform(0, f.Interval())
	}
	f.Sim.ScheduleTyped(f.Sim.Now()+first, macroTick, f, nil, f.gen)
}

// Stop halts emission. The flow can be restarted.
func (f *MacroFlow) Stop() { f.running = false }

// RemoveMember drops a member (a captured zombie stops contributing
// to the aggregate). The aggregate Rate is unchanged — remaining
// members share it — mirroring an attacker redistributing load.
// Removing the last member stops the flow. Reports whether the
// member was present.
func (f *MacroFlow) RemoveMember(id netsim.NodeID) bool {
	for i, m := range f.Members {
		if m != id {
			continue
		}
		f.Members = append(f.Members[:i], f.Members[i+1:]...)
		if i < f.next {
			f.next--
		}
		if len(f.Members) == 0 {
			f.running = false
		}
		return true
	}
	return false
}

// macroTick is the flow's heartbeat: one typed event per aggregate
// packet, self-rescheduling. The generation byte in kind invalidates
// ticks left in the heap by a stopped flow.
//
//hbplint:hotpath macro-flow tick: the flow-level fast path of internet-scale sweeps — one event per aggregate packet regardless of member count
func macroTick(a, _ any, kind uint8) {
	f := a.(*MacroFlow)
	if !f.running || f.gen != kind {
		return
	}
	f.emit()
	if !f.running {
		return
	}
	gap := f.Interval()
	if f.Poisson != nil {
		gap = f.Poisson.Exp(gap)
	}
	f.Sim.ScheduleTyped(f.Sim.Now()+gap, macroTick, f, nil, kind)
}

// emit materializes one aggregate packet as the next member in the
// rotation, at the oracle's expansion point.
func (f *MacroFlow) emit() {
	if len(f.Members) == 0 {
		f.running = false
		return
	}
	if f.next >= len(f.Members) {
		f.next = 0
	}
	m := f.Members[f.next]
	f.next++
	dst := f.Dest()
	n, in := f.Oracle.Expand(m, dst)
	if n == nil {
		f.Skipped++
		return
	}
	src := m
	if f.Source != nil {
		src = f.Source(m)
	}
	f.seq++
	f.Sent++
	pp := n.NewPacket()
	*pp = netsim.Packet{
		Src:     src,
		TrueSrc: m,
		Dst:     dst,
		Size:    f.Size,
		Type:    f.Type,
		FlowID:  f.FlowID,
		Seq:     f.seq,
		Legit:   f.Legit,
	}
	n.Inject(pp, in)
}
