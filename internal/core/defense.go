package core

import (
	"errors"
	"sort"

	"repro/internal/des"
	"repro/internal/hbp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/trace"
)

// Config parameterizes the honeypot back-propagation defense.
type Config struct {
	// ActivationThreshold is how many honeypot packets a server must
	// receive inside one window before triggering back-propagation.
	// Values > 1 tolerate benign scanner noise (Sec. 5.3, false
	// positives). Default 1.
	ActivationThreshold int
	// SessionLifetime is a safety expiry for router sessions in case
	// a cancel message is lost; 0 disables. Defaults to twice the
	// pool epoch length.
	SessionLifetime float64
	// Progressive enables the multi-epoch scheme of Sec. 6.
	Progressive bool
	// Rho is the progressive scheme's consecutive-report retention
	// threshold ρ. Default 3.
	Rho int
	// Tau is the server's estimate of the per-hop session-setup time
	// τ used to schedule direct requests ahead of honeypot windows.
	// Default 50 ms.
	Tau float64
	// AuthKey is the shared key authenticating multi-hop messages.
	// Required when Progressive or partial deployment is used.
	AuthKey []byte

	// Reliable enables the fault-tolerant control plane: Request,
	// Cancel and Report carry sequence numbers, receivers ack them,
	// senders retransmit with exponential backoff, and sessions become
	// lease-based (a Request carries a lease that the router expires if
	// not refreshed). The paper assumes control messages always arrive;
	// this is the deviation that lets the defense keep converging over
	// a lossy, crashing infrastructure. Off by default so the idealized
	// model stays reproducible.
	Reliable bool
	// AckTimeout is the initial retransmission timeout in seconds
	// (default 0.25); it doubles after each attempt, up to maxRetries
	// retransmissions.
	AckTimeout float64

	// EpochAuth enables the authenticated control plane: every control
	// message carries an HMAC under a per-epoch key from a dedicated
	// control hash chain (domain-separated from AuthKey, one key per
	// honeypot epoch), and receivers reject forged, tampered or
	// replayed frames. It supersedes the TTL-255 adjacency heuristic,
	// which a byzantine router can trivially satisfy. Off by default so
	// the paper's idealized model stays bit-reproducible.
	EpochAuth bool
	// Budget caps every attacker-growable state table (session tables,
	// flood dedup, retransmit state, replay windows). Zero-valued
	// fields take defaults — state is always bounded.
	Budget Budget
	// Watchdog enables server-side stall detection: while a honeypot
	// window keeps collecting attack packets but no capture progress is
	// made, the server re-seeds the session tree (and, in progressive
	// mode, the armed frontier routers) every WatchdogInterval. This is
	// the recovery path for sessions lost to budget eviction or
	// byzantine teardown.
	Watchdog bool
	// WatchdogInterval is the stall-check period in seconds
	// (default 1).
	WatchdogInterval float64
}

func (c *Config) fillDefaults(epochLen float64) {
	if c.ActivationThreshold <= 0 {
		c.ActivationThreshold = 1
	}
	if c.SessionLifetime == 0 {
		c.SessionLifetime = 2 * epochLen
	}
	if c.Rho <= 0 {
		c.Rho = 3
	}
	if c.Tau <= 0 {
		c.Tau = 0.05
	}
	if len(c.AuthKey) == 0 {
		c.AuthKey = []byte("hbp-shared-defense-key")
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 0.25
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = 1
	}
	c.Budget.FillDefaults()
}

// Capture records back-propagation reaching an attack host: its
// access-switch port was shut.
type Capture struct {
	// Attacker is the captured host.
	Attacker netsim.NodeID
	// Server is the honeypot whose session tree reached the host.
	Server netsim.NodeID
	// Router is the access router that installed the filter.
	Router netsim.NodeID
	// Time is the simulation time of the capture.
	Time float64
}

// Defense wires honeypot back-propagation into a simulated network:
// router agents on deploying routers, legacy relays on non-deploying
// ones, and server-side triggers on the roaming pool's server agents.
type Defense struct {
	Cfg  Config
	sim  *des.Simulator
	net  *netsim.Network
	pool *roaming.Pool

	// IsHost classifies nodes as end hosts (attack-capture decision
	// point at access routers). Set from the topology.
	isHost func(*netsim.Node) bool

	// RemoteDeployed, when set, reports whether a node owned by another
	// cluster part runs a router agent. Sharded internet-scale runs use
	// one Defense per part; back-propagation crossing a cut edge asks
	// this hook instead of the local router map, so requests are sent
	// point-to-point rather than falling back to piggyback flooding.
	// Reads must be placement-independent (topology-derived), never
	// live remote state.
	RemoteDeployed func(*netsim.Node) bool

	routers map[netsim.NodeID]*RouterAgent
	legacy  map[netsim.NodeID]*LegacyAgent
	servers map[netsim.NodeID]*ServerDefense
	// openSessions is the number of live sessions over all routers,
	// kept current where a session table changes (open, budget shed,
	// close, crash) so StateSize does not walk every router each time a
	// session opens.
	openSessions int
	// CaptureLog records captures in time order and fires the promoted
	// OnCapture hook; StateMeter tracks the promoted PeakState
	// high-water mark of StateSize() over the run. Both are shared with
	// the AS plane (internal/hbp).
	hbp.CaptureLog[Capture]
	hbp.StateMeter
	// Trace, if set, records a structured event log of every defense
	// action (session lifecycle, propagation, captures, auth
	// rejections). A nil log is a no-op.
	Trace *trace.Log

	// Counters for the overhead accounting of Sec. 5.3.
	MsgSent    int64
	MsgBadAuth int64
	floodSeq   int64

	// Ctrl aggregates the reliable control plane's counters.
	Ctrl metrics.ControlStats
	// Sec aggregates the hardened control plane's counters: auth and
	// replay rejects, budget evictions, watchdog re-seeds.
	Sec metrics.SecurityStats
	// ctrlSeq allocates sequence numbers for reliable transfers (and,
	// under EpochAuth, for every control message's replay protection).
	ctrlSeq int64
	// pending tracks unacked reliable transfers by sequence number.
	pending map[int64]*pendingSend
	// auth holds the per-epoch control MAC keys when EpochAuth is
	// enabled (domain-separated from the AS plane's chain).
	auth *hbp.Auth
}

// New builds a defense instance. isHost must classify end hosts
// (leaves and servers) versus routers.
func New(nw *netsim.Network, pool *roaming.Pool, isHost func(*netsim.Node) bool, cfg Config) (*Defense, error) {
	if nw == nil || pool == nil || isHost == nil {
		return nil, errors.New("core: nil network, pool or host classifier")
	}
	cfg.fillDefaults(pool.Config().EpochLen)
	d := &Defense{
		Cfg:     cfg,
		sim:     nw.Sim,
		net:     nw,
		pool:    pool,
		isHost:  isHost,
		routers: map[netsim.NodeID]*RouterAgent{},
		legacy:  map[netsim.NodeID]*LegacyAgent{},
		servers: map[netsim.NodeID]*ServerDefense{},
		pending: map[int64]*pendingSend{},
		auth:    hbp.NewAuth(ctrlChainLabel, cfg.AuthKey, "ctrl-mac"),
	}
	if cfg.EpochAuth {
		// One control key per honeypot epoch, held by the defense
		// infrastructure only (deployed routers, HSMs, pool servers) —
		// clients' service tokens come from a different chain, so a
		// compromised subscriber cannot forge control traffic.
		if err := d.auth.Ensure(pool.Config().Epochs); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// DeployRouter activates honeypot back-propagation on a router.
func (d *Defense) DeployRouter(n *netsim.Node) *RouterAgent {
	if a, ok := d.routers[n.ID]; ok {
		return a
	}
	a := newRouterAgent(d, n)
	d.routers[n.ID] = a
	return a
}

// DeployLegacy marks a router as non-deploying: it only relays
// piggybacked announcements (the routing protocol does, regardless of
// defense support).
func (d *Defense) DeployLegacy(n *netsim.Node) *LegacyAgent {
	if a, ok := d.legacy[n.ID]; ok {
		return a
	}
	a := newLegacyAgent(d, n)
	d.legacy[n.ID] = a
	return a
}

// AttachServer hooks the defense into a roaming server agent: its
// honeypot windows drive session setup and teardown.
func (d *Defense) AttachServer(sa *roaming.ServerAgent) *ServerDefense {
	if s, ok := d.servers[sa.Node.ID]; ok {
		return s
	}
	s := newServerDefense(d, sa)
	d.servers[sa.Node.ID] = s
	return s
}

// DeployPerAS deploys at ISP granularity (the realistic increment of
// Sec. 5.3: whole providers adopt the scheme or don't): routers whose
// AS is in the deployed set run agents; routers in non-deploying ASes
// become legacy piggyback relays.
func (d *Defense) DeployPerAS(routers []*netsim.Node, asOf map[netsim.NodeID]int, deployed map[int]bool) {
	for _, r := range routers {
		if deployed[asOf[r.ID]] {
			d.DeployRouter(r)
		} else {
			d.DeployLegacy(r)
		}
	}
}

// CapturesByAS groups captures by the access router's AS — the
// paper's deployment incentive: each ISP learns exactly which of its
// own hosts are compromised.
func (d *Defense) CapturesByAS(asOf map[netsim.NodeID]int) map[int]int {
	out := map[int]int{}
	for _, c := range d.Captures() {
		out[asOf[c.Router]]++
	}
	return out
}

// DeployAll deploys router agents on every non-host node and attaches
// every provided server agent — the full-deployment configuration of
// the simulation study.
func (d *Defense) DeployAll(serverAgents []*roaming.ServerAgent) {
	for _, n := range d.net.Nodes() {
		if !d.isHost(n) {
			d.DeployRouter(n)
		}
	}
	for _, sa := range serverAgents {
		d.AttachServer(sa)
	}
}

// CrashRouter fails a router: the node blackholes traffic and flushes
// its queues (netsim), every honeypot session and in-flight
// retransmission it owned is lost, and its forwarding hook is removed.
// Wire it to a fault plan's OnCrash hook (internal/faults).
func (d *Defense) CrashRouter(n *netsim.Node) {
	n.SetDown(true)
	if a, ok := d.routers[n.ID]; ok {
		d.Ctrl.SessionsLostToCrash += int64(a.crash())
		d.rec(trace.RouterCrashed, int(n.ID), -1, -1, "")
	}
	d.abandonPending(func(ps *pendingSend) bool { return ps.from == n })
}

// RestartRouter brings a crashed router back with a clean agent: the
// paper's session state lives in RAM, so a power cycle re-registers an
// empty RouterAgent (cumulative stats carry over for accounting). A
// router restarted without a crash first loses its RAM all the same.
func (d *Defense) RestartRouter(n *netsim.Node) {
	n.SetDown(false)
	old, ok := d.routers[n.ID]
	if !ok {
		return
	}
	d.Ctrl.SessionsLostToCrash += int64(old.crash())
	a := newRouterAgent(d, n)
	a.SessionsCreated = old.SessionsCreated
	a.SessionsClosed = old.SessionsClosed
	a.Propagations = old.Propagations
	a.Blocks = old.Blocks
	d.routers[n.ID] = a
	d.rec(trace.RouterRestarted, int(n.ID), -1, -1, "")
}

// Close tears down every piece of live defense state at end of run:
// all router sessions (with their lease timers), every in-flight
// reliable transfer, and the legacy relays' dedup windows. After Close
// returns, StateSize reads zero — the leak-checked teardown contract a
// supervised scenario run asserts before its resources are reused.
// Cumulative counters (captures, control stats, peak state) survive,
// so Close composes with result collection. Teardown order is sorted,
// keeping the event-heap mutations of timer cancellation
// deterministic.
func (d *Defense) Close() {
	ids := make([]netsim.NodeID, 0, len(d.routers))
	for id := range d.routers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d.routers[id].crash()
	}
	d.abandonPending(func(*pendingSend) bool { return true })
	lids := make([]netsim.NodeID, 0, len(d.legacy))
	for id := range d.legacy {
		lids = append(lids, id)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	for _, id := range lids {
		d.legacy[id].seen.Reset()
	}
}

// OpenSessions counts live honeypot sessions across all deployed
// routers — a leak indicator when measured after the last epoch.
func (d *Defense) OpenSessions() int { return d.openSessions }

// Router returns the agent deployed on node id, or nil.
func (d *Defense) Router(id netsim.NodeID) *RouterAgent { return d.routers[id] }

// ServerDefense returns the server-side defense for node id, or nil.
func (d *Defense) ServerDefense(id netsim.NodeID) *ServerDefense { return d.servers[id] }

// deployed reports whether a node runs a router agent — locally, or
// (in a sharded cluster run with one Defense instance per part) on a
// remote part as told by RemoteDeployed.
func (d *Defense) deployed(n *netsim.Node) bool {
	if _, ok := d.routers[n.ID]; ok {
		return true
	}
	return d.RemoteDeployed != nil && d.RemoteDeployed(n)
}

func (d *Defense) recordCapture(c Capture) {
	d.rec(trace.Captured, int(c.Router), int(c.Attacker), int(c.Server), "")
	d.CaptureLog.Record(c)
}

// rec appends a trace event with the current timestamp. It returns
// before touching the simulator clock when no sink is attached, so
// untraced runs pay nothing per event.
func (d *Defense) rec(kind trace.Kind, node, peer, server int, note string) {
	if !d.Trace.Enabled() {
		return
	}
	d.Trace.Record(trace.Event{
		Time:   d.sim.Now(),
		Kind:   kind,
		Node:   node,
		Peer:   peer,
		Server: server,
		Note:   note,
	})
}

// sendMsg transmits a control message from a node to a destination
// node (hop-by-hop when adjacent; routed when Direct/Report).
func (d *Defense) sendMsg(from *netsim.Node, to netsim.NodeID, m *Message) {
	d.MsgSent++
	pp := from.NewPacket()
	*pp = netsim.Packet{
		Src:     from.ID,
		TrueSrc: from.ID,
		Dst:     to,
		Size:    CtrlPacketSize,
		Type:    netsim.Control,
		Payload: m,
	}
	from.Send(pp)
}

// authOK validates an incoming control message. Under EpochAuth every
// message must carry a valid per-epoch MAC — the TTL-255 adjacency
// heuristic is gone, because a byzantine router satisfies it
// trivially. In the paper's original model (EpochAuth off), messages
// from a direct neighbor that is a router (or a pool server) pass the
// TTL-255 adjacency check and anything else needs a valid HMAC under
// the shared key (Sec. 5.3).
func (d *Defense) authOK(m *Message, p *netsim.Packet, in *netsim.Port) bool {
	if in == nil {
		return true // locally generated
	}
	if d.Cfg.EpochAuth {
		if !d.verifyCtrl(m, p.Dst) {
			d.MsgBadAuth++
			d.Sec.AuthRejects++
			d.rec(trace.AuthRejected, int(p.Dst), int(p.Src), int(m.Server), "bad epoch MAC")
			return false
		}
		if !d.epochFresh(m) {
			// Valid MAC for a stale epoch: a replayed capture of genuine
			// control traffic, refused before it can touch session state.
			d.Sec.ReplayRejects++
			d.rec(trace.ReplayRejected, int(p.Dst), int(p.Src), int(m.Server), "stale epoch")
			return false
		}
		return true
	}
	if m.Verify(d.Cfg.AuthKey) {
		return true
	}
	if p.TTL != netsim.DefaultTTL {
		d.MsgBadAuth++
		d.rec(trace.AuthRejected, int(p.Dst), int(p.Src), int(m.Server), "multi-hop without tag")
		return false
	}
	peer := in.Far().Node()
	// Only adjacent routers and pool servers may speak hop-by-hop.
	if d.isHost(peer) && !d.isPoolServer(peer.ID) {
		d.MsgBadAuth++
		d.rec(trace.AuthRejected, int(p.Dst), int(peer.ID), int(m.Server), "hop-by-hop from a host")
		return false
	}
	return true
}

func (d *Defense) isPoolServer(id netsim.NodeID) bool {
	for _, s := range d.pool.Servers() {
		if s.ID == id {
			return true
		}
	}
	return false
}

func (d *Defense) nextFloodID() int64 {
	d.floodSeq++
	return d.floodSeq
}
