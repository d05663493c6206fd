package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pushback"
	"repro/internal/roaming"
	"repro/internal/stackpi"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TreeResult summarizes one tree-scenario run.
type TreeResult struct {
	Config TreeConfig
	// Throughput is the legitimate goodput fraction of the bottleneck
	// capacity, sampled once per second (the Fig. 8 series).
	Throughput *metrics.Series
	// MeanBefore is the mean fraction before the attack starts.
	MeanBefore float64
	// MeanDuringAttack is the mean fraction across the attack window
	// (the y-axis of Figs. 10–12).
	MeanDuringAttack float64
	// Captures lists attack hosts stopped by HBP (empty for other
	// defenses).
	Captures []core.Capture
	// CaptureTimes are capture delays relative to the attack start.
	CaptureTimes []float64
	// CtrlMessages is the defense's control-message overhead.
	CtrlMessages int64
	// Ctrl aggregates the reliable control plane's counters (HBP only;
	// zero when Config.Reliable is off).
	Ctrl metrics.ControlStats
	// OpenSessionsAtEnd counts router sessions still live when the run
	// ends — the session-leak indicator under lost cancels and crashes
	// (HBP only).
	OpenSessionsAtEnd int
	// FaultLossCount / FaultOutageCount are packets destroyed by the
	// injected fault plan (random loss / link outages).
	FaultLossCount   int64
	FaultOutageCount int64
	// Sec aggregates HBP's adversarial-robustness counters: auth and
	// replay rejects, admission rejects, evictions, watchdog reseeds,
	// byzantine injections (zero for other defenses).
	Sec metrics.SecurityStats
	// PeakState / StateBudget are the defense-state high-water mark
	// over the run and its configured hard ceiling (HBP only).
	PeakState   int
	StateBudget int
	// ByzantineInjected counts hostile control frames the subverted
	// routers actually put on the wire.
	ByzantineInjected int64
	// AttackersCaptured counts distinct attack hosts among the
	// captures; CollateralBlocks counts distinct non-attack hosts the
	// defense blocked — the "defense weaponized" damage a replayed
	// arming request inflicts on legitimate clients.
	AttackersCaptured int
	CollateralBlocks  int
	// Trace is the defense event log when Config.TraceCap > 0.
	Trace *trace.Log
	// QueueDrops is the network-wide drop-tail loss count.
	QueueDrops int64
	// EventsFired is the total simulator events dispatched over the
	// run; benchmarks divide it by wall time for an events/sec rate.
	EventsFired uint64
	// Leak is the post-teardown resource audit: after results are
	// collected, RunTree closes the defense and drains the network, and
	// both gauges must read zero. A supervised scenario run refuses to
	// report success otherwise.
	Leak LeakReport
}

// LeakReport is the leak-checked teardown audit of one completed run.
type LeakReport struct {
	// PacketsOutstanding is netsim.Network.PacketsOutstanding after
	// the drain: pool packets some handler or agent stranded past
	// their terminal point.
	PacketsOutstanding int64
	// DefenseState is core.Defense.StateSize after Close: sessions,
	// dedup entries or pending transfers that survived teardown (0 for
	// non-HBP defenses).
	DefenseState int
}

// Clean reports whether the teardown reclaimed everything.
func (l LeakReport) Clean() bool { return l.PacketsOutstanding == 0 && l.DefenseState == 0 }

const (
	// pushbackTargetUtil is the ACC target utilization of the Pushback
	// baseline. ACC aims the aggregate at slightly above the bottleneck
	// so the baseline is not self-harming under dispersed attackers;
	// the max–min redistribution (the collateral-damage mechanism) is
	// unaffected. See EXPERIMENTS.md.
	pushbackTargetUtil = 1.05
	// sampleInterval is the throughput sampling period in seconds.
	sampleInterval = 1
)

// RunTree executes one tree scenario end to end.
func RunTree(cfg TreeConfig) (*TreeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := newSim(cfg.Context)
	sim.EventLimit = cfg.EventLimit
	tr := topology.NewTree(sim, cfg.Topology)
	rng := des.NewRNG(cfg.Seed)

	pool, err := roaming.NewPool(sim, tr.Servers, cfg.Pool)
	if err != nil {
		return nil, err
	}

	attackHosts, clientHosts := tr.PlaceAttackers(cfg.NumAttackers, cfg.Placement, cfg.Seed)

	if cfg.REDQueues {
		red := netsim.DefaultREDParams()
		for i, r := range tr.Routers {
			for _, pt := range r.Ports() {
				pt.EnableRED(red, cfg.Seed+int64(i)*131)
			}
		}
	}

	res := &TreeResult{Config: cfg}

	// Server-side agents and the defense under test. hbpDef escapes the
	// switch so the fault injector can wire crash hooks to it.
	var hbpDef *core.Defense
	switch cfg.Defense {
	case HBP:
		var perAS func(*core.Defense)
		if cfg.DeployFraction > 0 && cfg.DeployFraction < 1 {
			perAS = func(def *core.Defense) {
				asOf := tr.PartitionAS()
				routersOf := map[int]int{}
				for _, a := range asOf {
					routersOf[a]++
				}
				ids := sortedKeys(routersOf)[1:] // all but AS 0, the victim network, which always deploys
				drng := des.NewRNG(cfg.Seed + 97)
				drng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				deployed := map[int]bool{0: true}
				want := int(cfg.DeployFraction*float64(len(ids)) + 0.5)
				for i := 0; i < want && i < len(ids); i++ {
					deployed[ids[i]] = true
				}
				def.DeployPerAS(tr.Routers, asOf, deployed)
			}
		}
		hbpDef, _, err = deployHBP(tr.Net, pool, tr.Servers, tr.IsHost, core.Config{
			Progressive: cfg.Progressive, Reliable: cfg.Reliable, SessionLifetime: cfg.SessionLifetime,
			EpochAuth: cfg.EpochAuth, Watchdog: cfg.Watchdog, Budget: cfg.Budget,
		}, func(c core.Capture) { res.Captures = append(res.Captures, c) }, perAS)
		if err != nil {
			return nil, err
		}
		if cfg.TraceCap > 0 {
			hbpDef.Trace = trace.New(cfg.TraceCap)
			res.Trace = hbpDef.Trace
		}
	case Pushback, PushbackLevelK:
		for _, s := range tr.Servers {
			s.Handler = func(p *netsim.Packet, in *netsim.Port) {}
		}
		pbCfg := pushback.Config{TargetUtil: pushbackTargetUtil}
		if cfg.Defense == PushbackLevelK {
			pbCfg.WeightedShares = true
		}
		pb, err := pushback.New(tr.Net, nodeIDs(tr.Servers), pbCfg)
		if err != nil {
			return nil, err
		}
		if cfg.Defense == PushbackLevelK {
			weights := tr.HostWeights()
			pb.HostWeight = weights.At
		}
		pb.DeployRouters(tr.Routers)
		pb.Start()
		defer func() { res.CtrlMessages = pb.RequestsSent }()
	case StackPiFilter:
		// Mark on every router except the victim network's own two
		// (the usual Pi convention: the victim's AS does not mark, so
		// the mark is final at its ingress). Servers roam — honeypot
		// windows are the online training oracle — and the learned
		// marks are filtered at the bottleneck head, the victim ISP's
		// ingress firewall.
		marker := &stackpi.Marker{}
		marker.Deploy(midTree(tr))
		filter := stackpi.NewFilter()
		for _, s := range tr.Servers {
			sa := roaming.NewServerAgent(pool, s)
			sa.OnHoneypotPacket = func(p *netsim.Packet, in *netsim.Port) {
				if p.Type == netsim.Data {
					filter.Learn(p.Mark)
				}
			}
		}
		isServer := map[netsim.NodeID]bool{}
		for _, s := range tr.Servers {
			isServer[s.ID] = true
		}
		tr.Root.AddHook(netsim.ForwardFunc(func(n *netsim.Node, p *netsim.Packet, in, out *netsim.Port) bool {
			if !isServer[p.Dst] || p.Type != netsim.Data {
				return true
			}
			return filter.Check(p)
		}))
		defer func() { res.CtrlMessages = int64(filter.LearnedMarks()) }()
	case NoDefense:
		for _, s := range tr.Servers {
			s.Handler = func(p *netsim.Packet, in *netsim.Port) {}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown defense %v", cfg.Defense)
	}

	// Fault plan: installed after the defense so router crashes can be
	// wired into its session cleanup. For non-HBP defenses crashes fall
	// back to bare node blackholing. Byzantine routers (HBP only) are
	// subverted for the attack window. They hold no key material — the
	// adapter turns their misbehavior ticks into forged/replayed/amplified
	// control frames, and taps give them real frames to replay.
	byzantine := cfg.ByzantineNodes > 0 && hbpDef != nil
	var byzAdapter *core.ByzantineAdapter
	if cfg.FaultCrashes > 0 || byzantine {
		plan := faults.Plan{Seed: cfg.Seed + 2000}
		if cfg.Faults != nil {
			plan = *cfg.Faults
		}
		// Both hit mid-tree routers only: the root and the server gateway
		// are single points whose loss disconnects the scenario rather
		// than stressing the defense.
		targets := nodeIDs(midTree(tr))
		if cfg.FaultCrashes > 0 {
			restart := cfg.FaultRestartAfter
			if restart <= 0 {
				restart = 5
			}
			plan.Crashes = append(plan.Crashes,
				faults.RandomCrashes(plan.Seed+7, targets, cfg.FaultCrashes, cfg.AttackStart, cfg.AttackEnd, restart)...)
		}
		if byzantine {
			rate := cfg.ByzantineRate
			if rate <= 0 {
				rate = 2
			}
			plan.Byzantine = append(plan.Byzantine,
				faults.RandomByzantine(plan.Seed+11, targets, cfg.ByzantineNodes, rate, cfg.AttackStart, cfg.AttackEnd)...)
			byzAdapter = core.NewByzantineAdapter(hbpDef, nodeIDs(tr.Servers))
			for _, b := range plan.Byzantine {
				byzAdapter.Tap(tr.Net.Node(b.Node))
			}
		}
		cfg.Faults = &plan
	}
	var inj *faults.Injector
	if cfg.Faults != nil && cfg.Faults.Active() {
		var hooks faults.Hooks
		if hbpDef != nil {
			hooks.OnCrash = hbpDef.CrashRouter
			hooks.OnRestart = hbpDef.RestartRouter
		}
		if byzAdapter != nil {
			hooks.OnByzantine = byzAdapter.OnByzantine
		}
		inj = faults.Apply(sim, tr.Net, *cfg.Faults, hooks)
	}

	// Legitimate clients roam under HBP (and StackPi's online training),
	// uniform-static otherwise (Sec. 8.3).
	roam := cfg.Defense == HBP || cfg.Defense == StackPiFilter
	clientPool := pool
	if !roam {
		clientPool = nil
	}
	src, err := newTreeSources(tr, clientHosts, attackHosts, clientPool,
		cfg.LegitFraction*cfg.Topology.Bottleneck.Bandwidth, cfg.AttackRate, cfg.PacketSize, cfg.OnOff, rng)
	if err != nil {
		return nil, err
	}
	mon := metrics.NewBottleneckMonitor(sim, tr.Bottleneck, tr.ServerGW, sampleInterval)
	if roam {
		pool.Start()
	}
	src.schedule(sim, cfg.Pool.EpochLen, cfg.AttackStart, cfg.AttackEnd)
	if err := sim.RunUntil(cfg.Duration); err != nil {
		// Cancelled and event-limited runs still release their pooled
		// resources before reporting the abort: the scenario service
		// reuses the process for the next run.
		if hbpDef != nil {
			hbpDef.Close()
		}
		tr.Net.Drain()
		return nil, fmt.Errorf("experiments: run aborted at t=%.1fs after %d events: %w", sim.Now(), sim.Fired(), err)
	}

	res.Throughput = mon.Series()
	res.MeanBefore = res.Throughput.MeanBetween(1, cfg.AttackStart)
	res.MeanDuringAttack = res.Throughput.MeanBetween(cfg.AttackStart, cfg.AttackEnd)
	isAtk := make(map[netsim.NodeID]bool, len(attackHosts))
	for _, h := range attackHosts {
		isAtk[h.ID] = true
	}
	var capAt []float64
	atkSeen, colSeen := map[netsim.NodeID]bool{}, map[netsim.NodeID]bool{}
	for _, c := range res.Captures {
		capAt = append(capAt, c.Time)
		if isAtk[c.Attacker] {
			atkSeen[c.Attacker] = true
		} else {
			colSeen[c.Attacker] = true
		}
	}
	res.CaptureTimes = metrics.CaptureTimes(capAt, cfg.AttackStart)
	res.AttackersCaptured = len(atkSeen)
	res.CollateralBlocks = len(colSeen)
	res.QueueDrops = tr.Net.TotalQueueDrops()
	res.EventsFired = sim.Fired()
	if inj != nil {
		res.FaultLossCount = inj.LostToNoise()
		res.FaultOutageCount = inj.LostToFailure()
	}
	if byzAdapter != nil {
		res.ByzantineInjected = byzAdapter.Injected
	}
	// Leak-checked teardown: collect every live gauge first (Close wipes
	// the open-session count), then release defense state and drain the
	// network so the pool audit sees a quiescent run. Leak must read
	// clean — a supervised scenario run fails otherwise.
	if hbpDef != nil {
		res.Sec = hbpDef.Sec
		res.PeakState = hbpDef.PeakState
		res.StateBudget = hbpDef.StateBudget()
		res.CtrlMessages = hbpDef.MsgSent
		res.Ctrl = hbpDef.Ctrl
		res.OpenSessionsAtEnd = hbpDef.OpenSessions()
		hbpDef.Close()
		res.Leak.DefenseState = hbpDef.StateSize()
	}
	tr.Net.Drain()
	res.Leak.PacketsOutstanding = tr.Net.PacketsOutstanding()
	return res, nil
}

// treeSources are a tree scenario's traffic sources.
type treeSources struct {
	clients   []*traffic.Client
	attackers []interface {
		Start()
		Stop()
	}
}

// newTreeSources draws a tree's sources from rng: clients on
// clientHosts sharing legitBps — roaming on pool tokens when pool is
// non-nil, static otherwise — then attackers on attackHosts at
// attackRate bits/s each, spoofing the leaf address space and bursting
// when onOff is non-nil.
func newTreeSources(tr *topology.Tree, clientHosts, attackHosts []*netsim.Node, pool *roaming.Pool,
	legitBps, attackRate float64, size int, onOff *OnOffSpec, rng *des.RNG) (*treeSources, error) {
	src := &treeSources{}
	clientCfg := traffic.ClientConfig{Rate: legitBps / float64(len(clientHosts)), Size: size}
	for _, h := range clientHosts {
		if pool == nil {
			src.clients = append(src.clients, traffic.NewStaticClient(h, tr.Servers, clientCfg, rng))
			continue
		}
		sub, err := pool.Issue(pool.Config().Epochs - 1)
		if err != nil {
			return nil, err
		}
		src.clients = append(src.clients, traffic.NewRoamingClient(h, sub, tr.Servers, clientCfg, rng))
	}
	atkCfg := traffic.AttackerConfig{Rate: attackRate, Size: size, SpoofSpace: nodeIDs(tr.Leaves)}
	for _, h := range attackHosts {
		if onOff != nil {
			src.attackers = append(src.attackers, traffic.NewOnOffAttacker(h, tr.Servers, atkCfg, onOff.Ton, onOff.Toff, rng))
		} else {
			src.attackers = append(src.attackers, traffic.NewAttacker(h, tr.Servers, atkCfg, rng))
		}
	}
	return src, nil
}

// schedule starts the clients — then extra — at time 0 and runs the
// attackers from attackStart to attackEnd.
func (src *treeSources) schedule(sim *des.Simulator, epochLen, attackStart, attackEnd float64, extra ...starter) {
	sim.At(0, func() {
		for _, c := range src.clients {
			c.Start(epochLen)
		}
		for _, f := range extra {
			f.Start()
		}
	})
	sim.At(attackStart, func() {
		for _, a := range src.attackers {
			a.Start()
		}
	})
	sim.At(attackEnd, func() {
		for _, a := range src.attackers {
			a.Stop()
		}
	})
}

// nodeIDs lists the nodes' IDs.
func nodeIDs(nodes []*netsim.Node) []netsim.NodeID {
	ids := make([]netsim.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}

// midTree lists a tree's routers below the root and above the server
// gateway: the ones whose loss stresses the defense rather than
// disconnecting the scenario, and that mark as the victim's AS does not.
func midTree(tr *topology.Tree) []*netsim.Node {
	var rs []*netsim.Node
	for _, r := range tr.Routers {
		if r != tr.Root && r != tr.ServerGW {
			rs = append(rs, r)
		}
	}
	return rs
}
