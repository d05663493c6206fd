package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/asnet"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ExtLevelK compares plain Pushback against the level-k
// (host-weighted max–min) variant the paper cites as a mitigation
// alternative (Sec. 2), plus HBP and no-defense, under loud attackers
// where aggregate control matters.
func ExtLevelK(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	base.AttackRate = 0.5e6
	t := &Table{
		Title: "Extension — level-k max-min fairness vs plain Pushback (0.5 Mb/s attackers)",
		Note: "level-k fixes per-port blindness (closes the worse-than-no-defense gap) " +
			"but stays far below HBP — the paper's Sec. 2 characterization",
		Headers: []string{"placement", "hbp %", "pushback %", "pushback-levelk %", "no-defense %"},
	}
	return placementSweep(t, base, []topology.Placement{topology.Even, topology.Close},
		[]DefenseKind{HBP, Pushback, PushbackLevelK, NoDefense})
}

// ExtLoad sweeps the legitimate load (the paper notes "similar
// results were obtained with lower legitimate loads"): the defense
// ordering must be load-invariant. Cells are the retained fraction of
// pre-attack throughput during the attack.
func ExtLoad(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	// Size the attack to 75% of the bottleneck so it bites even at
	// 50% legitimate load.
	base.AttackRate = 0.75 * base.Topology.Bottleneck.Bandwidth / float64(base.NumAttackers)
	t := &Table{
		Title:   "Extension — effect of legitimate load (retained % of pre-attack throughput)",
		Headers: []string{"legit load (of bottleneck)", "hbp %", "pushback %", "no-defense %"},
	}
	loads := []float64{0.5, 0.7, 0.9}
	labels := make([]string, len(loads))
	for i, load := range loads {
		labels[i] = fmt.Sprintf("%.0f%%", 100*load)
	}
	return defenseSweep(t, base, labels, paperDefenses,
		func(cfg *TreeConfig, row int) { cfg.LegitFraction = loads[row] },
		func(r *TreeResult) float64 {
			if r.MeanBefore > 0 {
				return 100 * r.MeanDuringAttack / r.MeanBefore
			}
			return 0
		})
}

// RunInterAS measures inter-AS capture time on a transit chain of the
// given length, with the chosen ingress-identification mode (-1 and
// false when the attacker escapes).
func RunInterAS(ctx context.Context, transits int, mode asnet.IngressMode, seed int64) (float64, bool, error) {
	return runTransitChain(ctx, transits, asnet.Config{Mode: mode}, "ia", seed, 0)
}

// ExtInterAS reports inter-AS capture time versus AS-hop distance for
// both ingress-identification mechanisms (Sec. 5.1) — the AS-level
// analogue of the Fig. 6 validation.
func ExtInterAS(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Extension — inter-AS capture time vs AS-hop distance (m=10s, p=0.5, 25 pkt/s)",
		Note:  "ingress identification by edge-router marking vs GRE tunneling to the HSM",
		Headers: []string{
			"AS hops", "marking E[CT] (s)", "tunneling E[CT] (s)", "captured",
		},
	}
	runs := scale.runsAtLeast(1)
	for _, transits := range []int{2, 4, 6, 8} {
		var byMode [2][]float64
		captured := 0
		for _, mode := range []asnet.IngressMode{asnet.Marking, asnet.Tunneling} {
			for r := 0; r < runs; r++ {
				ct, ok, err := RunInterAS(scale.Ctx, transits, mode, int64(r+1))
				if err != nil {
					return nil, err
				}
				if ok {
					captured++
					byMode[int(mode)] = append(byMode[int(mode)], ct)
				}
			}
		}
		t.AddRow(
			transits+1,
			fmt.Sprintf("%.1f", metrics.Mean(byMode[int(asnet.Marking)])),
			fmt.Sprintf("%.1f", metrics.Mean(byMode[int(asnet.Tunneling)])),
			fmt.Sprintf("%d/%d", captured, 2*runs),
		)
	}
	return t, nil
}

// FollowerResult is one follower-attack measurement.
type FollowerResult struct {
	Dfollow    float64
	MeasuredCT float64
	Captured   bool
	Model      analysis.Result
}

// RunFollower measures the capture time of a follower attacker (an
// adversary that has learned the roaming schedule and stops sending
// d_follow after each honeypot epoch begins — Sec. 7.3) on a string
// topology with progressive back-propagation, and evaluates Eq. (12).
func RunFollower(ctx context.Context, hops int, dfollow float64, seed int64) (*FollowerResult, error) {
	const (
		epochLen = 10.0
		ratePPS  = 25.0
	)
	rig := captureRig{
		hops: hops, poolSize: 2, k: 1, epochLen: epochLen, epochs: 600,
		chainSeed: fmt.Sprintf("follower-%d", seed),
		defense:   core.Config{Progressive: true, Rho: 8},
		ctx:       ctx,
	}
	ct, captured, err := rig.run(
		func(host *netsim.Node, _ netsim.NodeID, pool *roaming.Pool) starter {
			return traffic.NewFollower(host, pool, traffic.AttackerConfig{
				Rate: ratePPS * 500 * 8, Size: 500,
				SpoofSpace: []netsim.NodeID{9001, 9002, 9003},
			}, dfollow, des.NewRNG(seed))
		},
		func() float64 { return 0.5 })
	if err != nil {
		return nil, err
	}
	res := &FollowerResult{Dfollow: dfollow, MeasuredCT: ct, Captured: captured}
	res.Model = analysis.ProgressiveFollower(analysis.Params{
		M: epochLen, P: 0.5, R: ratePPS, H: hops + 1, Tau: 0.01,
	}, dfollow)
	return res, nil
}

// ExtFollower sweeps the follower reaction delay and compares against
// Eq. (12): slower followers (larger d_follow) concede more hops per
// honeypot epoch and are captured faster.
func ExtFollower(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Extension — follower attack (Eq. 12): capture time vs reaction delay",
		Note: "10-hop string, m=10s, p=0.5, 25 pkt/s; a follower reacting inside the guard " +
			"window (d_follow <= δ+γ = 0.2s) is invisible to the honeypot and is never traced — " +
			"but it also concedes every honeypot epoch of attack time",
		Headers: []string{"d_follow (s)", "measured CT (s)", "Eq.(12) E[CT] (s)", "captured"},
	}
	// Delays chosen inside the multi-epoch regime: at 25 pkt/s the
	// per-hop cost is ~0.04 s, so these concede 2-11 hops per epoch
	// against an 11-hop path.
	runs := scale.runsAtLeast(1)
	for _, df := range []float64{0.1, 0.2, 0.3, 0.5} {
		var cts []float64
		captured := 0
		model := analysis.Result{}
		for r := 0; r < runs; r++ {
			res, err := RunFollower(scale.Ctx, 10, df, int64(r+1))
			if err != nil {
				return nil, err
			}
			model = res.Model
			if res.Captured {
				captured++
				cts = append(cts, res.MeasuredCT)
			}
		}
		measured := "-"
		if len(cts) > 0 {
			measured = fmt.Sprintf("%.1f", metrics.Mean(cts))
		}
		t.AddRow(
			fmt.Sprintf("%.1f", df),
			measured,
			fmt.Sprintf("%.1f", model.ECT),
			fmt.Sprintf("%d/%d", captured, runs),
		)
	}
	return t, nil
}

// ExtRoamingOverhead measures the no-attack cost of roaming for TCP
// clients (Sec. 5.3's first overhead component): goodput of a roaming
// TCP client vs a static one.
func ExtRoamingOverhead(scale Scale) (*Table, error) {
	goodput := func(roam bool, seed int64) (int64, int64, error) {
		sim := newSim(scale.Ctx)
		tr := topology.NewString(sim, 3, 5, topology.LinkClass{Bandwidth: 2e6, Delay: 0.005})
		pcfg := roaming.Config{
			N: 5, K: 3, EpochLen: 10, Guard: 0.3, Epochs: 100,
			ChainSeed: []byte(fmt.Sprintf("ovh-%d", seed)),
		}
		pool, err := roaming.NewPool(sim, tr.Servers, pcfg)
		if err != nil {
			return 0, 0, err
		}
		for _, s := range tr.Servers {
			a := roaming.NewServerAgent(pool, s)
			tcp.NewServerEndpoint(a)
		}
		host := tr.Leaves[0]
		e := tcp.NewEndpoint(host)
		var s *tcp.Sender
		var start func()
		if roam {
			sub, err := pool.Issue(99)
			if err != nil {
				return 0, 0, err
			}
			c := tcp.NewRoamingClient(e, sub, tr.Servers, 1, tcp.SenderConfig{}, des.NewRNG(seed))
			s, start = c.Sender, func() { c.Start(pcfg.EpochLen) }
		} else {
			s = e.NewSender(tr.Servers[0].ID, 1, tcp.SenderConfig{})
			start = s.Start
			tcp.NewEndpoint(tr.Servers[0]) // plain always-on server
		}
		pool.Start()
		sim.At(0.01, start)
		if err := sim.RunUntil(600); err != nil {
			return 0, 0, err
		}
		return s.GoodputBytes(), s.Stats.Migrations, nil
	}
	static, _, err := goodput(false, 1)
	if err != nil {
		return nil, err
	}
	roamed, migrations, err := goodput(true, 1)
	if err != nil {
		return nil, err
	}
	overhead := 100 * float64(static-roamed) / float64(static)
	t := &Table{
		Title: "Extension — roaming overhead under no attack (TCP, Sec. 5.3)",
		Note:  "paper reports 4-10% degradation depending on load; migration = handshake + slow-start restart",
		Headers: []string{
			"client", "goodput (bytes / 600 s)", "migrations", "overhead %",
		},
	}
	t.AddRow("static", fmt.Sprint(static), "0", "0.0")
	t.AddRow("roaming (N=5,k=3,m=10s)", fmt.Sprint(roamed), fmt.Sprint(migrations), fmt.Sprintf("%.1f", overhead))
	return t, nil
}

// ExtAllDefenses runs every implemented defense on the default
// scenario — the one-table summary of the whole comparison.
func ExtAllDefenses(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	base.AttackRate = 0.3e6
	t := &Table{
		Title: "Extension — all defenses on the default scenario (0.3 Mb/s attackers, even placement)",
		Note: "captures apply to HBP only; 'ctrl' is control messages (HBP/pushback) " +
			"or learned marks (stackpi)",
		Headers: []string{"defense", "before %", "during attack %", "captures", "ctrl"},
	}
	defenses := []DefenseKind{HBP, PushbackLevelK, Pushback, StackPiFilter, NoDefense}
	cells, err := sweep(base, 1, defenses, func(cfg *TreeConfig, row int) {})
	if err != nil {
		return nil, err
	}
	for i, d := range defenses {
		r := cells[0][i]
		t.AddRow(
			d.String(),
			fmt.Sprintf("%.1f", 100*r.MeanBefore),
			fmt.Sprintf("%.1f", 100*r.MeanDuringAttack),
			len(r.Captures),
			r.CtrlMessages,
		)
	}
	return t, nil
}

// ExtEq4 validates Eq. (4) in simulation: against a low-rate
// continuous attacker (whose per-hop cost makes one epoch too short
// for the whole path), progressive capture time grows with the hop
// distance h — unlike the basic scheme's epoch-dominated Eq. (3).
func ExtEq4(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Extension — validation of Eq. (4): progressive capture time vs hop distance",
		Note:  "continuous attacker at 0.5 pkt/s, m=10s, p=0.5: one epoch covers only a few hops, so h matters",
		Headers: []string{
			"hops", "measured E[CT] (s)", "std (s)", "Eq.(4) E[CT] (s)", "captured",
		},
	}
	runs := scale.runsAtLeast(2)
	for _, h := range []int{5, 10, 20} {
		cfg := ValidationConfig{
			Hops: h, EpochLen: 10, HoneypotProb: 0.5,
			RatePPS: 0.5, Runs: runs, Seed: 9,
			Context: scale.Ctx,
		}
		r, err := RunValidationProgressive(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			h,
			fmt.Sprintf("%.1f", r.MeanCT),
			fmt.Sprintf("%.1f", r.StdCT),
			fmt.Sprintf("%.1f", r.Model.ECT),
			fmt.Sprintf("%d/%d", r.Captured, runs),
		)
	}
	return t, nil
}

// ExtDeployment sweeps the fraction of deploying ISPs — the paper's
// incremental-deployment claim: "incremental benefits are possible
// with partial deployment", because piggybacked announcements bridge
// non-deploying networks and every deploying ISP still gets its own
// compromised hosts located.
func ExtDeployment(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	base.AttackRate = 0.3e6
	t := &Table{
		Title: "Extension — incremental deployment: benefit vs fraction of deploying ISPs",
		Note: "deployment at ISP (level-1 subtree) granularity; the victim's network always deploys; " +
			"captures need the attacker's own access router to deploy",
		Headers: []string{"deploying ISPs", "captured", "client throughput during attack %"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		cfg := base
		cfg.Defense = HBP
		cfg.DeployFraction = frac
		r, err := RunTree(cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f%%", 100*frac),
			fmt.Sprintf("%d/%d", len(r.Captures), cfg.NumAttackers),
			fmt.Sprintf("%.1f", 100*r.MeanDuringAttack),
		)
	}
	return t, nil
}

// RunOnOffValidation measures basic-scheme capture time against an
// on-off attacker, for comparison with Eqs. (5), (7) and (10). The
// burst must be long enough that one overlapped epoch traces the
// whole path (the basic scheme's applicability condition).
func RunOnOffValidation(ctx context.Context, ton, toff float64, runs int, seed int64) (measured float64, captured int, model analysis.Result, err error) {
	const (
		hops     = 6
		epochLen = 10.0
		ratePPS  = 25.0
	)
	rig := captureRig{hops: hops, poolSize: 2, k: 1, epochLen: epochLen, epochs: 600, ctx: ctx}
	cts, err := rig.repeat(runs, "onoffv", seed, 777, func(host *netsim.Node, target netsim.NodeID, rng *des.RNG) starter {
		return &traffic.OnOff{CBR: spoofingCBR(host, target, ratePPS, 500, rng, 30000), Ton: ton, Toff: toff}
	})
	if err != nil {
		return 0, 0, model, err
	}
	model = analysis.BasicOnOff(analysis.Params{
		M: epochLen, P: 0.5, R: ratePPS, H: hops + 1, Tau: 0.01,
	}, ton, toff)
	return metrics.Mean(cts), len(cts), model, nil
}

// ExtOnOffValidation compares measured basic-scheme capture times for
// on-off attacks against the Sec. 7.3 closed forms across the three
// regimes.
func ExtOnOffValidation(scale Scale) (*Table, error) {
	runs := scale.runsAtLeast(2)
	t := &Table{
		Title: "Extension — validation of the on-off equations (basic scheme, m=10s, p=0.5, 25 pkt/s, h=7)",
		Note:  "bursts long enough for a full single-epoch trace; the closed forms are conservative expectations",
		Headers: []string{
			"t_on(s)", "t_off(s)", "regime", "measured E[CT] (s)", "model E[CT] (s)", "captured",
		},
	}
	for _, pt := range []struct{ ton, toff float64 }{
		{30, 5},  // case 1: m <= ton/2
		{12, 10}, // case 2: ton/2 < m <= ton+toff
		{4, 3},   // case 3: m > ton+toff
	} {
		measured, captured, model, err := RunOnOffValidation(scale.Ctx, pt.ton, pt.toff, runs, 11)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%.0f", pt.ton),
			fmt.Sprintf("%.0f", pt.toff),
			model.Eq,
			fmt.Sprintf("%.1f", measured),
			fmt.Sprintf("%.1f", model.ECT),
			fmt.Sprintf("%d/%d", captured, runs),
		)
	}
	return t, nil
}
