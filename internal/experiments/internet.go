package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// InternetConfig specifies an internet-scale HBP scenario: one
// power-law AS tree partitioned across a sharded cluster, a zombie
// population aggregated into per-part macro flows at a fixed total
// attack rate (the paper's dispersion axis: more zombies each sending
// less), and flow-level legitimate background traffic following the
// roaming schedule. Per-packet simulation happens only from each
// flow's expansion point — the deepest honeypot-armed router on the
// member's path — downstream to the victim, so event cost tracks the
// aggregate rates, not the endpoint count.
type InternetConfig struct {
	// Topology sizes the AS graph, host population and link classes.
	Topology topology.InternetParams
	// Shards is the engine width (0 or 1 sequential). Results are
	// bit-identical at every width.
	Shards int
	// Zombies is the attack population size, spread over the host
	// population by even stride (hence across stub ASes).
	Zombies int
	// AttackRate is the aggregate attack rate in bits/s across ALL
	// zombies; sweeping Zombies at fixed AttackRate isolates
	// dispersion from load.
	AttackRate float64
	// LegitFraction is the legitimate aggregate load as a fraction of
	// the bottleneck bandwidth.
	LegitFraction float64
	// PacketSize is the data packet size in bytes.
	PacketSize int
	// Duration, AttackStart and AttackEnd shape the run.
	Duration    float64
	AttackStart float64
	AttackEnd   float64
	// EpochLen / Epochs / PoolK parameterize the roaming pool
	// (N is the server count from Topology).
	EpochLen float64
	Epochs   int
	PoolK    int
	// Seed drives every stream; derived per part with des.DeriveSeed.
	Seed int64
	// Context, when non-nil, cancels the run cooperatively.
	Context context.Context
}

// InternetConfigFor sizes a scenario for one sweep point: the host
// population scales with the zombie count (zombies stay a constant
// fraction of endpoints) while the aggregate rates stay fixed.
func InternetConfigFor(zombies int, seed int64) InternetConfig {
	hosts := max(2*zombies, 2000)
	ases := min(max(hosts/50, 100), 20000)
	tp := topology.DefaultInternetParams()
	tp.Graph = topology.ASGraphParams{ASes: ases, Gamma: 2.1, Seed: des.DeriveSeed(seed, 17)}
	tp.Hosts = hosts
	tp.Servers = 5
	tp.Parts = 16
	return InternetConfig{
		Topology:      tp,
		Shards:        8,
		Zombies:       zombies,
		AttackRate:    2.5 * tp.Bottleneck.Bandwidth,
		LegitFraction: 0.6,
		PacketSize:    500,
		Duration:      40,
		AttackStart:   5,
		AttackEnd:     35,
		EpochLen:      5,
		Epochs:        64,
		PoolK:         3,
		Seed:          seed,
	}
}

// Validate reports configuration errors.
func (c InternetConfig) Validate() error {
	timing := checkTiming(c.Duration, c.AttackStart, c.AttackEnd)
	switch {
	case c.Topology.Graph.ASes < 2:
		return fmt.Errorf("experiments: an AS graph needs at least 2 ASes, got %d", c.Topology.Graph.ASes)
	case c.Topology.Graph.Gamma != 0 && c.Topology.Graph.Gamma <= 2:
		// 0 means the generator's default; anything else at or below 2
		// is not realizable by linear preferential attachment.
		return fmt.Errorf("experiments: degree exponent Gamma=%v must exceed 2", c.Topology.Graph.Gamma)
	case c.Zombies < 1 || c.Zombies > c.Topology.Hosts:
		return fmt.Errorf("experiments: %d zombies among %d hosts", c.Zombies, c.Topology.Hosts)
	case c.AttackRate <= 0 || c.LegitFraction < 0:
		return fmt.Errorf("experiments: bad rates (attack %v, legit fraction %v)", c.AttackRate, c.LegitFraction)
	case c.PacketSize <= 0:
		return fmt.Errorf("experiments: non-positive packet size")
	case timing != nil:
		return timing
	case c.EpochLen <= 0 || c.Epochs < 2:
		return fmt.Errorf("experiments: bad pool timing (%v, %d)", c.EpochLen, c.Epochs)
	case c.PoolK < 1 || c.PoolK >= c.Topology.Servers:
		return fmt.Errorf("experiments: pool K=%d of N=%d leaves no honeypots", c.PoolK, c.Topology.Servers)
	case c.Shards < 0:
		return fmt.Errorf("experiments: negative shard count %d", c.Shards)
	}
	return nil
}

// InternetResult summarizes one internet-scale run.
type InternetResult struct {
	Config InternetConfig
	// Hosts/ASes/Parts echo the materialized topology.
	Hosts, ASes, Parts int
	// Endpoints counts the hosts that became simulated nodes because a
	// packet reached them; the other Hosts−Endpoints stayed reserved IDs
	// for the whole run.
	Endpoints int
	// RouteKind / RouteBytes / BytesPerNode report the routing-state
	// footprint (the compressed-table gauge of the memory model):
	// the route table over routers and servers plus the hosts'
	// reservation arrays, divided over every addressable ID — routers,
	// gateway, servers and hosts, built or not.
	RouteKind    string
	RouteBytes   int64
	BytesPerNode float64
	// CaptureTimes are relative to the attack start, ascending; every
	// capture names a zombie.
	CaptureTimes []float64
	// MeanBefore / MeanDuringAttack are the bottleneck's legitimate
	// goodput fractions.
	MeanBefore       float64
	MeanDuringAttack float64
	// PeakState / StateBudget sum the per-part defense-state
	// high-water marks and ceilings — the state-budget axis.
	PeakState   int
	StateBudget int
	// AttackSent / AttackSkipped / LegitSent count macro-flow
	// emissions (skipped = held aggregated by the oracle).
	AttackSent    int64
	AttackSkipped int64
	LegitSent     int64
	// The capture count, control overhead (the control-cost axis of
	// the sweep), drops, events, wall time and leak audit; the
	// fingerprint lines carry each part's macro-flow counters.
	shardedRun
}

// armedFrontierOracle expands a member's packets at the deepest
// honeypot-armed router on its AS chain within the member's own part.
// Back-propagation arms routers victim-outward, so the armed set on
// any chain is a contiguous segment at the victim end; walking up
// from the access router, the first armed router is the frontier.
// Unarmed chains fall back to the level-1 subtree head — one hop from
// AS 0 — so the victim side always sees full per-packet traffic while
// the quiet stub edge stays aggregated. When that head is the member's
// own access router, the ingress is the member's port only if it is
// already built: the head holds no session for dst (the walk just
// checked), so no filter reads the port, and asking for it would build
// an endpoint for nothing. An armed access router gets the port built,
// since a capture blocks it. All lookups are local to the part:
// topology is immutable, and the session tables consulted belong to
// the part's own defense.
type armedFrontierOracle struct {
	it  *topology.Internet
	def *core.Defense
}

func (o *armedFrontierOracle) Expand(member, dst netsim.NodeID) (*netsim.Node, *netsim.Port) {
	idx := o.it.HostIndex(member)
	if idx < 0 {
		return nil, nil
	}
	as := o.it.HostAS[idx]
	for {
		if ra := o.def.Router(netsim.NodeID(as)); ra != nil && ra.HasSession(dst) {
			r := o.it.Routers[as]
			return r, r.NextHop(member)
		}
		p := o.it.Graph.Parent[as]
		if p <= 0 {
			break
		}
		as = p
	}
	r := o.it.Routers[as]
	if o.it.HostAS[idx] == as {
		return r, r.EndpointPort(member)
	}
	return r, r.NextHop(member)
}

// internetPart is the per-part state of an internet run.
type internetPart struct {
	pool  *roaming.Pool
	def   *core.Defense
	atk   *traffic.MacroFlow
	legit *traffic.MacroFlow
}

// internetRun is an internet scenario built and not yet run.
type internetRun struct {
	cfg   InternetConfig
	it    *topology.Internet
	res   *InternetResult
	parts []*internetPart
	defs  []*core.Defense
	eager int
}

// RunInternet executes one internet-scale scenario end to end on the
// sharded engine. The defense is fully deployed: every part runs its
// own core.Defense over its local routers, with cross-part control
// traffic riding the cut channels and remote deployment answered
// topologically (every AS router deploys). Parts other than 0 hold an
// unstarted replica pool — roaming.NewPool is deterministic in the
// chain seed and a pool's active sets depend on the chain alone, so
// each part derives (and memoizes) the same schedule with zero
// cross-shard reads.
func RunInternet(cfg InternetConfig) (*InternetResult, error) {
	r, err := buildInternet(cfg)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// buildInternet builds an internet scenario: topology, per-part pools,
// defenses and macro flows, with the flows' start and stop scheduled.
func buildInternet(cfg InternetConfig) (*internetRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	it := topology.BuildInternet(newSharded(cfg.Context, cfg.Shards), cfg.Topology)
	cl := it.Cluster

	nh := len(it.HostAS)
	eager := len(cl.Nodes())
	res := &InternetResult{
		Config: cfg,
		Hosts:  nh, ASes: len(it.Routers), Parts: it.Parts,
		RouteKind:    cl.RouteKind(),
		RouteBytes:   cl.RouteBytes(),
		BytesPerNode: float64(cl.RouteBytes()) / float64(eager+nh),
	}

	poolCfg := roaming.Config{
		N: len(it.Servers), K: cfg.PoolK, EpochLen: cfg.EpochLen, Guard: 0.3,
		Epochs: cfg.Epochs, ChainSeed: []byte("internet-sweep"),
	}

	// Zombie selection: even stride over the host population, which
	// spreads the attack across stub ASes (maximum dispersion, the
	// paper's hardest case) and is independent of partitioning.
	isZombie := make([]bool, nh)
	for j := 0; j < cfg.Zombies; j++ {
		isZombie[j*nh/cfg.Zombies] = true
	}
	// Count first, then fill at exact capacity: growing the lists by
	// append made several times their content in garbage.
	nAtk, nLegit := make([]int, it.Parts), make([]int, it.Parts)
	for i, as := range it.HostAS {
		if isZombie[i] {
			nAtk[it.PartOf[as]]++
		} else {
			nLegit[it.PartOf[as]]++
		}
	}
	atkMembers := make([][]netsim.NodeID, it.Parts)
	legitMembers := make([][]netsim.NodeID, it.Parts)
	for part := range atkMembers {
		atkMembers[part] = make([]netsim.NodeID, 0, nAtk[part])
		legitMembers[part] = make([]netsim.NodeID, 0, nLegit[part])
	}
	for i, as := range it.HostAS {
		part := int(it.PartOf[as])
		if isZombie[i] {
			atkMembers[part] = append(atkMembers[part], it.HostID(i))
		} else {
			legitMembers[part] = append(legitMembers[part], it.HostID(i))
		}
	}
	totalLegit := nh - cfg.Zombies

	parts := make([]*internetPart, it.Parts)
	defs := make([]*core.Defense, it.Parts)
	for part := 0; part < it.Parts; part++ {
		sim := cl.Part(part).Sim
		pool, err := roaming.NewPool(sim, it.Servers, poolCfg)
		if err != nil {
			return nil, err
		}
		pt := &internetPart{pool: pool}
		parts[part] = pt
		var servers []*netsim.Node
		if part == 0 {
			servers = it.Servers
		}
		// A capture fires on the captured zombie's own part/shard: its
		// access port is shut, so its share of the local attack flow is
		// gone.
		pt.def, _, err = deployHBP(cl.Part(part), pool, servers, it.IsHost, core.Config{}, func(c core.Capture) {
			if pt.atk != nil {
				pt.atk.RemoveMember(c.Attacker)
			}
		}, nil)
		if err != nil {
			return nil, err
		}
		defs[part] = pt.def
		// Remote nodes a control walk reaches are deployed exactly when
		// they are AS routers — a pure topology read, never remote
		// defense state.
		pt.def.RemoteDeployed = it.IsRouter

		oracle := &armedFrontierOracle{it: it, def: pt.def}
		prng := des.NewRNG(des.DeriveSeed(cfg.Seed, int64(3000+part)))
		if len(atkMembers[part]) > 0 {
			target := it.Servers[prng.Intn(len(it.Servers))].ID
			spoofRNG := prng.Split(1)
			pt.atk = &traffic.MacroFlow{
				Sim:     sim,
				Members: atkMembers[part],
				Rate:    cfg.AttackRate * float64(len(atkMembers[part])) / float64(cfg.Zombies),
				Size:    cfg.PacketSize,
				Dest:    func() netsim.NodeID { return target },
				Source: func(netsim.NodeID) netsim.NodeID {
					return it.HostID(spoofRNG.Intn(nh))
				},
				Oracle: oracle, FlowID: 1,
				Jitter: prng.Split(2), Poisson: prng.Split(3),
			}
		}
		if len(legitMembers[part]) > 0 && cfg.LegitFraction > 0 {
			pt.legit = &traffic.MacroFlow{
				Sim:     sim,
				Members: legitMembers[part],
				Rate: cfg.LegitFraction * cfg.Topology.Bottleneck.Bandwidth *
					float64(len(legitMembers[part])) / float64(totalLegit),
				Size:   cfg.PacketSize,
				Dest:   epochDest(sim, pool, poolCfg),
				Oracle: oracle, Legit: true, FlowID: 2,
				Jitter: prng.Split(4), Poisson: prng.Split(5),
			}
		}

		if part == 0 {
			pool.Start()
		}
		atk, legit := pt.atk, pt.legit
		if legit != nil {
			sim.At(0, legit.Start)
		}
		if atk != nil {
			sim.At(cfg.AttackStart, atk.Start)
			sim.At(cfg.AttackEnd, atk.Stop)
		}
	}
	return &internetRun{cfg: cfg, it: it, res: res, parts: parts, defs: defs, eager: eager}, nil
}

// run runs a built internet scenario to its horizon and collects the
// result.
func (r *internetRun) run() (*InternetResult, error) {
	cfg, it, res, parts := r.cfg, r.it, r.res, r.parts
	cl := it.Cluster
	mon := metrics.NewBottleneckMonitor(cl.Part(0).Sim, it.Bottleneck, it.ServerGW, 1)

	var capAt []float64
	err := res.run("internet", cl, r.defs, cfg.Duration, func(i int) string {
		pt := parts[i]
		for _, c := range pt.def.Captures() {
			capAt = append(capAt, c.Time)
		}
		res.PeakState += pt.def.PeakState
		res.StateBudget += pt.def.StateBudget()
		var as, ask, ls int64
		if pt.atk != nil {
			as, ask = pt.atk.Sent, pt.atk.Skipped
		}
		if pt.legit != nil {
			ls = pt.legit.Sent
		}
		res.AttackSent += as
		res.AttackSkipped += ask
		res.LegitSent += ls
		return fmt.Sprintf("atk=%d/%d legit=%d", as, ask, ls)
	})
	if err != nil {
		return nil, err
	}
	series := mon.Series()
	res.MeanBefore = series.MeanBetween(1, cfg.AttackStart)
	res.MeanDuringAttack = series.MeanBetween(cfg.AttackStart, cfg.AttackEnd)
	sort.Float64s(capAt)
	res.CaptureTimes = metrics.CaptureTimes(capAt, cfg.AttackStart)
	res.Endpoints = -r.eager
	for part := 0; part < it.Parts; part++ {
		res.Endpoints += len(cl.Part(part).Nodes())
	}
	return res, nil
}

// epochDest returns a Dest closure that targets the roaming schedule's
// active set for the current epoch, read from the part's own pool
// memo (derived from the hash chain, never from another shard's
// state), rotating round-robin within the set.
func epochDest(sim *des.Simulator, pool *roaming.Pool, cfg roaming.Config) func() netsim.NodeID {
	seq := 0
	return func() netsim.NodeID {
		e := int(sim.Now() / cfg.EpochLen)
		if e >= cfg.Epochs {
			e = cfg.Epochs - 1
		}
		active, err := pool.ActiveSetAt(e)
		if err != nil {
			panic(err) // e is clamped into the chain
		}
		seq++
		return active[seq%len(active)]
	}
}

// internetZombieSweep is the sweep axis: zombie populations from 10^3
// to 10^6 at a fixed aggregate attack rate.
var internetZombieSweep = []int{1000, 10000, 100000, 1000000}

// ExtInternet runs the zombie sweep and tabulates capture behavior,
// goodput, control overhead, state budget and the routing-state
// footprint per point. The sweep depth follows the scale: quick runs
// stop at 10^4 zombies, the default at 10^5, and full scale covers the
// complete 10^3..10^6 axis.
func ExtInternet(s Scale) (*Table, error) {
	maxZombies := 10000
	if s.Leaves >= 1000 {
		maxZombies = 1000000
	} else if s.Leaves >= 200 {
		maxZombies = 100000
	}
	t := &Table{
		Title: "Internet-scale sweep: capture dynamics vs zombie dispersion",
		Note: "One power-law AS tree per point (hosts = 2x zombies), fixed aggregate " +
			"attack rate; macro-flows expand per-packet only from the honeypot-armed " +
			"frontier. B/node is the routing state (route table plus the hosts' " +
			"reservation arrays) per addressable ID, hosts built or not.",
		Headers: []string{"zombies", "hosts", "ASes", "route", "B/node", "captures",
			"first-cap(s)", "median-cap(s)", "goodput", "ctrl-msgs", "peak-state", "events", "wall(s)"},
	}
	for _, z := range internetZombieSweep {
		if z > maxZombies {
			break
		}
		cfg := InternetConfigFor(z, 1)
		cfg.Context = s.Ctx
		res, err := RunInternet(cfg)
		if err != nil {
			return nil, err
		}
		if !res.Leak.Clean() {
			return nil, fmt.Errorf("experiments: internet leak at %d zombies: %+v", z, res.Leak)
		}
		first, median := "-", "-"
		if len(res.CaptureTimes) > 0 {
			first = fmt.Sprintf("%.1f", res.CaptureTimes[0])
			median = fmt.Sprintf("%.1f", res.CaptureTimes[len(res.CaptureTimes)/2])
		}
		t.AddRow(z, res.Hosts, res.ASes, res.RouteKind, fmt.Sprintf("%.1f", res.BytesPerNode),
			res.Captures, first, median, fmt.Sprintf("%.3f", res.MeanDuringAttack),
			res.CtrlMessages, res.PeakState, fmt.Sprint(res.EventsFired),
			fmt.Sprintf("%.1f", res.Wall.Seconds()))
	}
	return t, nil
}
