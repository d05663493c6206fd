package asnet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// IntraASModel is the seam between the inter-AS plane and the
// router-level phase inside an attack-hosting AS (Sec. 5.2–5.3): once
// an HSM identifies locally originated honeypot traffic, the model
// locates the zombie and shuts it down. FixedDelay is the paper's
// abstraction (a constant IntraASTime); EmbeddedIntraAS runs a real
// core.Defense traceback over a generated router topology on the same
// simulation clock (see DESIGN.md, "Plane unification").
type IntraASModel interface {
	// Horizon returns how long the stub AS must retain the HSM session
	// for the phase to complete — the lease extension of the stub-AS
	// retention rule. Called once, just before Begin.
	Horizon(h *HSM, origin *Attacker) float64
	// Begin starts the intra-AS phase for origin inside h's AS and
	// invokes complete when the zombie has been stopped. complete is
	// at most once; a phase that cannot finish (the session leased
	// out, say) simply never calls it.
	Begin(h *HSM, origin *Attacker, complete func())
}

// FixedDelay is the paper's abstract intra-AS phase: the zombie is
// captured a constant Config.IntraASTime after local origin is
// identified. It is the default model and reproduces the historical
// event stream bit for bit.
type FixedDelay struct{}

// Horizon returns the abstract phase's retention lease: the capture
// delay plus 50% slack.
func (FixedDelay) Horizon(h *HSM, origin *Attacker) float64 {
	return h.d.Cfg.IntraASTime * 1.5
}

// Begin schedules the capture after the fixed delay.
func (FixedDelay) Begin(h *HSM, origin *Attacker, complete func()) {
	h.d.g.Sim.After(h.d.Cfg.IntraASTime, complete)
}

// EmbeddedIntraAS replaces the fixed intra-AS delay with the real
// thing: per attack-hosting AS it lazily instantiates a router-level
// topology (internal/topology tree) and a core.Defense over it, on the
// same des.Simulator clock as the AS graph. Each traceback floods the
// zombie's assigned leaf host toward a collector sink whose honeypot
// window is open, and the router plane's input debugging walks the
// session back to the access router and blocks the zombie's port. The
// observed capture then completes the owning HSM session.
//
// Ownership and clock rules (DESIGN.md, "Plane unification"): the
// embedded networks belong to this model, never to the AS graph; they
// share the simulator but exchange no packets with the outer plane —
// the only coupling is Begin/complete. One EmbeddedIntraAS serves
// exactly one Defense.
type EmbeddedIntraAS struct {
	// Leaves is the number of end hosts per generated intra-AS
	// topology (default 12). Tracebacks assign leaves round-robin, so
	// it bounds how many distinct zombies an AS can host before host
	// slots are reused.
	Leaves int
	// Seed diversifies per-AS topologies; sub-AS i uses a seed derived
	// from (Seed, i), so identical configurations reproduce identical
	// embedded networks.
	Seed int64
	// PacketRate overrides the intra-AS flood rate in packets/s; 0
	// uses the attacker's own Rate, matching the inter-AS flood.
	PacketRate float64

	owner *Defense
	subs  map[ASID]*IntraASNet
}

// IntraASNet is one embedded per-AS router network and its defense —
// exported so tests can assert cross-plane state hygiene (StateSize
// returning to baseline after every capture and teardown).
type IntraASNet struct {
	// AS is the owning stub AS.
	AS ASID
	// Tree is the generated router topology.
	Tree *topology.Tree
	// Def is the router-level defense running inside the AS.
	Def *core.Defense

	model     *EmbeddedIntraAS
	sim       *des.Simulator
	sink      *core.ServerDefense
	collector *netsim.Node

	// baseline is Def.StateSize() right after construction; teardown
	// must return to it.
	baseline int

	cur      *traceJob
	queue    []*traceJob
	nextLeaf int
	epochSeq int

	// Tracebacks counts phases started; Aborted counts phases that hit
	// their deadline without a capture (session evicted or leased out).
	Tracebacks int64
	Aborted    int64
}

// traceJob is one queued intra-AS traceback.
type traceJob struct {
	origin   *Attacker
	complete func()
	leaf     *netsim.Node
	flood    *traffic.CBR
	deadline des.Event
}

// floodPacketSize is the wire size of embedded intra-AS attack
// packets.
const floodPacketSize = 100

// maxAccessDepth is the deepest access-router level the generated
// intra-AS trees use (params below: MinDepth 1 + 3 HopDist buckets).
const maxAccessDepth = 3

func (e *EmbeddedIntraAS) params(as ASID) topology.Params {
	leaves := e.Leaves
	if leaves <= 0 {
		leaves = 12
	}
	return topology.Params{
		Leaves:      leaves,
		Servers:     1,
		Bottleneck:  topology.LinkClass{Bandwidth: 100e6, Delay: 0.002},
		ServerLink:  topology.LinkClass{Bandwidth: 1e9, Delay: 0.0005},
		CoreLink:    topology.LinkClass{Bandwidth: 200e6, Delay: 0.002},
		LeafLink:    topology.LinkClass{Bandwidth: 100e6, Delay: 0.002},
		HopDist:     []float64{0.25, 0.45, 0.30},
		MinDepth:    1,
		Reuse:       0.6,
		MaxChildren: 4,
		Seed:        e.Seed*1_000_003 + int64(as) + 1,
	}
}

// rate returns the intra-AS flood rate for origin in packets/s.
func (e *EmbeddedIntraAS) rate(origin *Attacker) float64 {
	if e.PacketRate > 0 {
		return e.PacketRate
	}
	if origin != nil && origin.Rate > 0 {
		return origin.Rate
	}
	return 10
}

// estimate is the expected wall-clock of one traceback at the given
// flood rate: the capture-time model of Sec. 7 specialised to the
// embedded tree — every back-propagated hop needs the next attack
// packet (1/r) plus the control hop (τ ≈ link delay), across at most
// maxAccessDepth+3 router hops (access path + root + gateway +
// collector).
func (e *EmbeddedIntraAS) estimate(rate float64) float64 {
	hops := float64(maxAccessDepth + 3)
	const tau = 0.01
	return (hops+1)*(1/rate) + hops*tau
}

// Horizon covers the queue ahead of this traceback plus twice the
// single-traceback estimate — generous, because an expired session
// mid-traceback strands the zombie until the next epoch.
func (e *EmbeddedIntraAS) Horizon(h *HSM, origin *Attacker) float64 {
	ahead := 1
	if s, ok := e.subs[h.as.ID]; ok {
		ahead += len(s.queue)
		if s.cur != nil {
			ahead++
		}
	}
	return float64(ahead)*2*e.estimate(e.rate(origin)) + 0.5
}

// Begin enqueues (and, when the embedded network is idle, immediately
// starts) the traceback for origin.
func (e *EmbeddedIntraAS) Begin(h *HSM, origin *Attacker, complete func()) {
	sub := e.sub(h)
	job := &traceJob{origin: origin, complete: complete}
	if sub.cur != nil {
		sub.queue = append(sub.queue, job)
		return
	}
	sub.start(job)
}

// Subs returns the instantiated per-AS networks in AS order.
func (e *EmbeddedIntraAS) Subs() []*IntraASNet {
	out := make([]*IntraASNet, 0, len(e.subs))
	for as := ASID(0); len(out) < len(e.subs); as++ {
		if s, ok := e.subs[as]; ok {
			out = append(out, s)
		}
	}
	return out
}

func (e *EmbeddedIntraAS) sub(h *HSM) *IntraASNet {
	if e.owner == nil {
		e.owner = h.d
	} else if e.owner != h.d {
		panic("asnet: one EmbeddedIntraAS cannot serve two Defenses")
	}
	if e.subs == nil {
		e.subs = map[ASID]*IntraASNet{}
	}
	s, ok := e.subs[h.as.ID]
	if !ok {
		s = e.build(h)
		e.subs[h.as.ID] = s
	}
	return s
}

// build instantiates the embedded network for h's AS: tree topology,
// a single collector server behind the gateway, a dummy roaming pool
// holding just the collector (never started — the HSM session, not a
// schedule, drives the sink's windows), and a fully deployed router
// defense.
func (e *EmbeddedIntraAS) build(h *HSM) *IntraASNet {
	sim := h.d.g.Sim
	tr := topology.NewTree(sim, e.params(h.as.ID))
	collector := tr.Servers[0]
	life := 4 * e.estimate(e.rate(nil))
	if cfgLife := h.d.Cfg.SessionLifetime; cfgLife > life {
		life = cfgLife
	}
	pool, err := roaming.NewPool(sim, []*netsim.Node{collector}, roaming.Config{
		N: 1, K: 1,
		EpochLen:  life,
		Epochs:    1,
		ChainSeed: []byte(fmt.Sprintf("intra-as-%d", h.as.ID)),
	})
	if err != nil {
		panic(err)
	}
	def, err := core.New(tr.Net, pool, tr.IsHost, core.Config{
		SessionLifetime: life,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range tr.Routers {
		def.DeployRouter(r)
	}
	s := &IntraASNet{
		AS:        h.as.ID,
		Tree:      tr,
		Def:       def,
		model:     e,
		sim:       sim,
		collector: collector,
	}
	s.sink = def.AttachSink(collector)
	def.OnCapture = s.onCapture
	s.baseline = def.StateSize()
	return s
}

// start launches one traceback: assign the zombie a leaf host, open
// the sink's honeypot window, and start the leaf's flood toward the
// collector. The router plane does the rest.
func (s *IntraASNet) start(job *traceJob) {
	s.cur = job
	s.Tracebacks++
	job.leaf = s.Tree.Leaves[s.nextLeaf%len(s.Tree.Leaves)]
	s.nextLeaf++
	// Reusing a host slot whose switch port is still blocked from an
	// earlier capture models host churn behind the access router: the
	// filter is withdrawn when the port is re-provisioned.
	if pt := s.Tree.AccessRouter(job.leaf).PortTo(job.leaf); pt != nil {
		pt.BlockedIngress = false
	}
	s.epochSeq++
	s.sink.OpenWindow(s.epochSeq)
	rate := s.model.rate(job.origin)
	job.flood = &traffic.CBR{
		Node: job.leaf,
		Rate: rate * floodPacketSize * 8,
		Size: floodPacketSize,
		Dest: func() netsim.NodeID { return s.collector.ID },
	}
	job.flood.Start()
	// Safety deadline: a traceback stranded by lease expiry or
	// eviction must not wedge the queue. No capture is recorded — the
	// zombie escapes until the next epoch re-seeds the session.
	job.deadline = s.sim.AfterNamed(2*s.model.estimate(rate)+0.5, "intra-as-deadline", func() {
		if s.cur != job {
			return
		}
		s.Aborted++
		s.teardown(job)
		s.next()
	})
}

// onCapture observes the embedded defense blocking an access port. A
// capture of the current job's leaf completes the traceback and
// reports back to the owning HSM session.
func (s *IntraASNet) onCapture(c core.Capture) {
	job := s.cur
	if job == nil || c.Attacker != job.leaf.ID {
		return
	}
	s.sim.Cancel(job.deadline)
	s.teardown(job)
	job.complete()
	s.next()
}

// teardown stops the flood and closes the sink window, cancelling the
// session tree back down the routers — embedded state must return to
// baseline (the cross-plane leak invariant).
func (s *IntraASNet) teardown(job *traceJob) {
	job.flood.Stop()
	s.sink.CloseWindow(s.epochSeq)
	s.cur = nil
}

func (s *IntraASNet) next() {
	if s.cur != nil || len(s.queue) == 0 {
		return
	}
	job := s.queue[0]
	s.queue = s.queue[1:]
	s.start(job)
}

// Baseline returns the construction-time StateSize of the embedded
// defense — the teardown target.
func (s *IntraASNet) Baseline() int { return s.baseline }

// Idle reports whether no traceback is running or queued.
func (s *IntraASNet) Idle() bool { return s.cur == nil && len(s.queue) == 0 }
