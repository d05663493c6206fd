package experiments

import (
	"fmt"
	"sort"

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
	// capacity, sampled once per SampleInterval (the Fig. 8 series).
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

// RunTree executes one tree scenario end to end.
func RunTree(cfg TreeConfig) (*TreeResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 1
	}
	sim := des.New()
	sim.EventLimit = cfg.EventLimit
	if cfg.Context != nil {
		sim.SetInterrupt(0, cfg.Context.Err)
	}
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
	var serverAgents []*roaming.ServerAgent
	switch cfg.Defense {
	case HBP:
		for _, s := range tr.Servers {
			serverAgents = append(serverAgents, roaming.NewServerAgent(pool, s))
		}
		def, err := core.New(tr.Net, pool, tr.IsHost, core.Config{
			Progressive: cfg.Progressive, Reliable: cfg.Reliable, SessionLifetime: cfg.SessionLifetime,
			EpochAuth: cfg.EpochAuth, Watchdog: cfg.Watchdog, Budget: cfg.Budget,
		})
		if err != nil {
			return nil, err
		}
		if cfg.DeployFraction > 0 && cfg.DeployFraction < 1 {
			asOf := tr.PartitionAS()
			asIDs := map[int]bool{}
			for _, a := range asOf {
				asIDs[a] = true
			}
			ids := make([]int, 0, len(asIDs))
			for a := range asIDs {
				if a != 0 {
					ids = append(ids, a)
				}
			}
			sort.Ints(ids)
			drng := des.NewRNG(cfg.Seed + 97)
			drng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			deployed := map[int]bool{0: true}
			want := int(cfg.DeployFraction*float64(len(ids)) + 0.5)
			for i := 0; i < want && i < len(ids); i++ {
				deployed[ids[i]] = true
			}
			def.DeployPerAS(tr.Routers, asOf, deployed)
			for _, sa := range serverAgents {
				def.AttachServer(sa)
			}
		} else {
			def.DeployAll(serverAgents)
		}
		if cfg.TraceCap > 0 {
			def.Trace = trace.New(cfg.TraceCap)
			res.Trace = def.Trace
		}
		def.OnCapture = func(c core.Capture) { res.Captures = append(res.Captures, c) }
		hbpDef = def
	case Pushback, PushbackLevelK:
		defended := make([]netsim.NodeID, len(tr.Servers))
		for i, s := range tr.Servers {
			defended[i] = s.ID
			s.Handler = func(p *netsim.Packet, in *netsim.Port) {}
		}
		pbCfg := pushback.Config{TargetUtil: cfg.PushbackTargetUtil}
		if cfg.Defense == PushbackLevelK {
			pbCfg.WeightedShares = true
		}
		pb, err := pushback.New(tr.Net, defended, pbCfg)
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
		var marking []*netsim.Node
		for _, r := range tr.Routers {
			if r != tr.Root && r != tr.ServerGW {
				marking = append(marking, r)
			}
		}
		marker.Deploy(marking)
		filter := stackpi.NewFilter()
		for _, s := range tr.Servers {
			sa := roaming.NewServerAgent(pool, s)
			serverAgents = append(serverAgents, sa)
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
	// back to bare node blackholing.
	if cfg.FaultCrashes > 0 {
		plan := faults.Plan{Seed: cfg.Seed + 2000}
		if cfg.Faults != nil {
			plan = *cfg.Faults
		}
		// Crash mid-tree routers only: the root and the server gateway
		// are single points whose loss disconnects the scenario rather
		// than stressing the defense.
		var ids []netsim.NodeID
		for _, r := range tr.Routers {
			if r != tr.Root && r != tr.ServerGW {
				ids = append(ids, r.ID)
			}
		}
		restart := cfg.FaultRestartAfter
		if restart <= 0 {
			restart = 5
		}
		plan.Crashes = append(plan.Crashes,
			faults.RandomCrashes(plan.Seed+7, ids, cfg.FaultCrashes, cfg.AttackStart, cfg.AttackEnd, restart)...)
		cfg.Faults = &plan
	}
	// Byzantine routers (HBP only): subvert seeded mid-tree routers for
	// the attack window. They hold no key material — the adapter turns
	// their misbehavior ticks into forged/replayed/amplified control
	// frames, and taps give them real frames to replay.
	var byzAdapter *core.ByzantineAdapter
	if cfg.ByzantineNodes > 0 && hbpDef != nil {
		plan := faults.Plan{Seed: cfg.Seed + 2000}
		if cfg.Faults != nil {
			plan = *cfg.Faults
		}
		var ids []netsim.NodeID
		for _, r := range tr.Routers {
			if r != tr.Root && r != tr.ServerGW {
				ids = append(ids, r.ID)
			}
		}
		rate := cfg.ByzantineRate
		if rate <= 0 {
			rate = 2
		}
		plan.Byzantine = append(plan.Byzantine,
			faults.RandomByzantine(plan.Seed+11, ids, cfg.ByzantineNodes, rate, cfg.AttackStart, cfg.AttackEnd)...)
		cfg.Faults = &plan

		serverIDs := make([]netsim.NodeID, len(tr.Servers))
		for i, s := range tr.Servers {
			serverIDs[i] = s.ID
		}
		byzAdapter = core.NewByzantineAdapter(hbpDef, serverIDs)
		for _, b := range plan.Byzantine {
			byzAdapter.Tap(tr.Net.Node(b.Node))
		}
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

	// Legitimate clients: roaming under HBP, uniform-static otherwise
	// (Sec. 8.3).
	clientRate := cfg.LegitFraction * cfg.Topology.Bottleneck.Bandwidth / float64(len(clientHosts))
	clientCfg := traffic.ClientConfig{Rate: clientRate, Size: cfg.PacketSize}
	var clients []*traffic.Client
	for _, h := range clientHosts {
		var c *traffic.Client
		if cfg.Defense == HBP || cfg.Defense == StackPiFilter {
			sub, err := pool.Issue(cfg.Pool.Epochs - 1)
			if err != nil {
				return nil, err
			}
			c = traffic.NewRoamingClient(h, sub, tr.Servers, clientCfg, rng)
		} else {
			c = traffic.NewStaticClient(h, tr.Servers, clientCfg, rng)
		}
		clients = append(clients, c)
	}

	// Attackers: spoofed sources drawn from the leaf address space.
	spoofSpace := make([]netsim.NodeID, len(tr.Leaves))
	for i, l := range tr.Leaves {
		spoofSpace[i] = l.ID
	}
	atkCfg := traffic.AttackerConfig{Rate: cfg.AttackRate, Size: cfg.PacketSize, SpoofSpace: spoofSpace}
	type startStopper interface {
		Start()
		Stop()
	}
	var attackers []startStopper
	for _, h := range attackHosts {
		if cfg.OnOff != nil {
			attackers = append(attackers, traffic.NewOnOffAttacker(h, tr.Servers, atkCfg, cfg.OnOff.Ton, cfg.OnOff.Toff, rng))
		} else {
			attackers = append(attackers, traffic.NewAttacker(h, tr.Servers, atkCfg, rng))
		}
	}

	mon := metrics.NewBottleneckMonitor(sim, tr.Bottleneck, tr.ServerGW, cfg.SampleInterval)

	// Schedule the run.
	if cfg.Defense == HBP || cfg.Defense == StackPiFilter {
		pool.Start()
	}
	sim.At(0, func() {
		for _, c := range clients {
			c.Start(cfg.Pool.EpochLen)
		}
	})
	sim.At(cfg.AttackStart, func() {
		for _, a := range attackers {
			a.Start()
		}
	})
	sim.At(cfg.AttackEnd, func() {
		for _, a := range attackers {
			a.Stop()
		}
	})
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
	var capAt []float64
	for _, c := range res.Captures {
		capAt = append(capAt, c.Time)
	}
	res.CaptureTimes = metrics.CaptureTimes(capAt, cfg.AttackStart)
	isAtk := make(map[netsim.NodeID]bool, len(attackHosts))
	for _, h := range attackHosts {
		isAtk[h.ID] = true
	}
	atkSeen, colSeen := map[netsim.NodeID]bool{}, map[netsim.NodeID]bool{}
	for _, c := range res.Captures {
		if isAtk[c.Attacker] {
			atkSeen[c.Attacker] = true
		} else {
			colSeen[c.Attacker] = true
		}
	}
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
