// Package repro's root benchmark harness: one benchmark per reproduced
// table/figure (reduced scale so `go test -bench=.` completes in
// minutes; use cmd/figures for paper-scale output), plus micro
// benchmarks of the simulation substrates.
package repro

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/asnet"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/hashchain"
	"repro/internal/netsim"
	"repro/internal/pushback"
	"repro/internal/roaming"
	"repro/internal/spie"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// benchScale keeps per-iteration work around a second.
func benchScale() experiments.Scale {
	return experiments.Scale{Leaves: 40, TimeFactor: 0.5, Runs: 1}
}

func benchTree(defense experiments.DefenseKind) experiments.TreeConfig {
	cfg := experiments.DefaultTreeConfig()
	cfg.Topology.Leaves = 40
	cfg.NumAttackers = 8
	cfg.AttackRate = 0.4e6
	cfg.Duration = 50
	cfg.AttackEnd = 45
	cfg.Defense = defense
	return cfg
}

// BenchmarkFig5 regenerates the analytical comparison of Sec. 7.4.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig5()
		if len(tab.Rows) == 0 {
			b.Fatal("empty Fig5")
		}
	}
}

// BenchmarkFig6 runs one Eq.(3)-validation point (string topology,
// basic back-propagation, measured capture time).
func BenchmarkFig6(b *testing.B) {
	cfg := experiments.DefaultValidationConfig()
	cfg.Hops = 6
	cfg.EpochLen = 20
	cfg.HoneypotProb = 0.5
	cfg.Runs = 1
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		r, err := experiments.RunValidation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = r.MeanCT
	}
}

// BenchmarkFig7 generates the Fig.-7-matched topology and its
// histograms.
func BenchmarkFig7(b *testing.B) {
	p := topology.DefaultParams()
	p.Leaves = 500
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i + 1)
		tr := topology.NewTree(des.New(), p)
		if len(tr.HopCountHistogram()) == 0 || len(tr.DegreeHistogram()) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig8 runs the throughput-over-time scenario for HBP (the
// headline series of Fig. 8).
func BenchmarkFig8(b *testing.B) {
	cfg := benchTree(experiments.HBP)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RunTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Throughput.Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFig8Pushback is the Pushback series of Fig. 8.
func BenchmarkFig8Pushback(b *testing.B) {
	cfg := benchTree(experiments.Pushback)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.RunTree(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8NoDefense is the undefended series of Fig. 8.
func BenchmarkFig8NoDefense(b *testing.B) {
	cfg := benchTree(experiments.NoDefense)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.RunTree(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 sweeps attacker placement at reduced scale.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pl := range []topology.Placement{topology.Far, topology.Close} {
			cfg := benchTree(experiments.Pushback)
			cfg.Placement = pl
			if _, err := experiments.RunTree(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig11 sweeps the number of attackers at reduced scale.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 12} {
			cfg := benchTree(experiments.HBP)
			cfg.NumAttackers = n
			if _, err := experiments.RunTree(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig12 sweeps the per-attacker rate at reduced scale.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rate := range []float64{0.1e6, 0.5e6} {
			cfg := benchTree(experiments.HBP)
			cfg.AttackRate = rate
			if _, err := experiments.RunTree(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig9 renders the parameter table (trivial; included so
// every figure has a bench target).
func BenchmarkFig9(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig9(scale); len(tab.Rows) == 0 {
			b.Fatal("empty Fig9")
		}
	}
}

// --- Ablations -----------------------------------------------------

// BenchmarkAblationProgressive compares basic vs progressive
// back-propagation against a short-burst on-off attacker (the Sec. 6
// motivation): the metric of interest is Captures in the output.
func BenchmarkAblationProgressive(b *testing.B) {
	run := func(progressive bool) int {
		cfg := benchTree(experiments.HBP)
		cfg.Progressive = progressive
		cfg.OnOff = &experiments.OnOffSpec{Ton: 0.4, Toff: 6.6}
		cfg.AttackRate = 0.02e6
		cfg.Duration = 400
		cfg.AttackEnd = 395
		r, err := experiments.RunTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return len(r.Captures)
	}
	b.Run("basic", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += run(false)
		}
		b.ReportMetric(float64(total)/float64(b.N), "captures/op")
	})
	b.Run("progressive", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += run(true)
		}
		b.ReportMetric(float64(total)/float64(b.N), "captures/op")
	})
}

// BenchmarkAblationControlPriority measures HBP capture latency with
// and without the control-plane priority lane (DESIGN.md ablation).
func BenchmarkAblationControlPriority(b *testing.B) {
	run := func(priority bool) {
		sim := des.New()
		tr := topology.NewString(sim, 8, 2, topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
		tr.Net.ControlPriority = priority
		pool, err := roaming.NewPool(sim, tr.Servers, roaming.Config{
			N: 2, K: 1, EpochLen: 10, Guard: 0.2, Epochs: 40, ChainSeed: []byte("abl")})
		if err != nil {
			b.Fatal(err)
		}
		def, err := core.New(tr.Net, pool, tr.IsHost, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var agents []*roaming.ServerAgent
		for _, s := range tr.Servers {
			agents = append(agents, roaming.NewServerAgent(pool, s))
		}
		def.DeployAll(agents)
		host := tr.Leaves[0]
		target := tr.Servers[0].ID
		stop := sim.Every(0.5, 0.01, func() {
			host.Send(&netsim.Packet{Src: 9999, TrueSrc: host.ID, Dst: target, Size: 1000, Type: netsim.Data})
		})
		defer stop()
		pool.Start()
		if err := sim.RunUntil(100); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("priority", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(true)
		}
	})
	b.Run("no-priority", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(false)
		}
	})
}

// BenchmarkAblationREDQueues compares drop-tail vs RED gateways under
// the Pushback baseline (the ns-2 setup used RED).
func BenchmarkAblationREDQueues(b *testing.B) {
	run := func(red bool, seed int64) float64 {
		cfg := benchTree(experiments.Pushback)
		cfg.REDQueues = red
		cfg.Seed = seed
		r, err := experiments.RunTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r.MeanDuringAttack
	}
	b.Run("droptail", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += run(false, int64(i+1))
		}
		b.ReportMetric(100*total/float64(b.N), "clientTput%/op")
	})
	b.Run("red", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += run(true, int64(i+1))
		}
		b.ReportMetric(100*total/float64(b.N), "clientTput%/op")
	})
}

// BenchmarkAblationIngressMode compares the two ingress-identification
// mechanisms of the inter-AS scheme (Sec. 5.1): destination-end
// provider marking vs GRE tunneling to the HSM.
func BenchmarkAblationIngressMode(b *testing.B) {
	run := func(mode asnet.IngressMode, seed int) float64 {
		sim := des.New()
		g := asnet.NewGraph(sim)
		serverAS := g.AddAS(false)
		prev := serverAS
		for i := 0; i < 6; i++ {
			tr := g.AddAS(true)
			g.Connect(prev, tr)
			prev = tr
		}
		attackerAS := g.AddAS(false)
		g.Connect(prev, attackerAS)
		g.ComputeRoutes()
		def := asnet.NewDefense(g, 10, asnet.Config{Mode: mode})
		def.DeployAll()
		sched, err := asnet.NewSchedule([]byte{byte(seed)}, 2, 1, 0, 10, 0.2, 60)
		if err != nil {
			b.Fatal(err)
		}
		srv := asnet.NewServer(def, serverAS, sched)
		atk := asnet.NewAttacker(def, attackerAS, srv, 50)
		capAt := -1.0
		def.OnCapture = func(c asnet.Capture) { capAt = c.Time; sim.Stop() }
		sim.At(0.5, func() { atk.Start() })
		if err := sim.RunUntil(600); err != nil {
			b.Fatal(err)
		}
		return capAt
	}
	for _, mode := range []asnet.IngressMode{asnet.Marking, asnet.Tunneling} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				ct := run(mode, i)
				if ct < 0 {
					b.Fatal("no capture")
				}
				total += ct
			}
			b.ReportMetric(total/float64(b.N), "captureTime_s/op")
		})
	}
}

// --- Substrate micro-benchmarks -------------------------------------

// BenchmarkHashChain measures chain generation (1000 epochs).
func BenchmarkHashChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := hashchain.MustGenerate([]byte{byte(i)}, 1000)
		if c.Len() != 1000 {
			b.Fatal("bad chain")
		}
	}
}

// BenchmarkActiveSet measures active-set derivation for N=5, k=3.
func BenchmarkActiveSet(b *testing.B) {
	c := hashchain.MustGenerate([]byte("bench"), 64)
	key, _ := c.Key(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := hashchain.ActiveSet(key, 5, 3); len(s) != 3 {
			b.Fatal("bad set")
		}
	}
}

// BenchmarkBloom measures SPIE digest-table insert+query cost.
func BenchmarkBloom(b *testing.B) {
	bl := spie.NewBloom(1<<15, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := spie.DigestFields(int64(i), 2, 3, int64(i), 500)
		bl.Add(d)
		if !bl.Contains(d) {
			b.Fatal("bloom lost an element")
		}
	}
}

// BenchmarkMaxMin measures the pushback share computation.
func BenchmarkMaxMin(b *testing.B) {
	demands := make([]float64, 32)
	for i := range demands {
		demands[i] = float64(i * 1000)
	}
	for i := 0; i < b.N; i++ {
		if s := pushback.MaxMinShare(50_000, demands); len(s) != 32 {
			b.Fatal("bad share vector")
		}
	}
}

// BenchmarkWeightedMaxMin measures the level-k share computation.
func BenchmarkWeightedMaxMin(b *testing.B) {
	demands := make([]float64, 32)
	weights := make([]float64, 32)
	for i := range demands {
		demands[i] = float64(i * 1000)
		weights[i] = float64(i%7 + 1)
	}
	for i := 0; i < b.N; i++ {
		if s := pushback.WeightedMaxMinShare(50_000, demands, weights); len(s) != 32 {
			b.Fatal("bad share vector")
		}
	}
}

// BenchmarkTCPBulk measures simulated TCP goodput over a short run.
func BenchmarkTCPBulk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := des.New()
		nw := netsim.New(sim)
		client := nw.AddNode("c")
		r := nw.AddNode("r")
		server := nw.AddNode("s")
		nw.Connect(client, r, 1e8, 0.002)
		nw.Connect(r, server, 1e7, 0.002)
		nw.ComputeRoutes()
		ce := tcp.NewEndpoint(client)
		tcp.NewEndpoint(server)
		s := ce.NewSender(server.ID, 1, tcp.SenderConfig{})
		sim.At(0, s.Start)
		if err := sim.RunUntil(5); err != nil {
			b.Fatal(err)
		}
		if s.GoodputBytes() == 0 {
			b.Fatal("no goodput")
		}
	}
}

// BenchmarkAnalysisOnOff measures the closed-form evaluator.
func BenchmarkAnalysisOnOff(b *testing.B) {
	p := analysis.Fig5Params()
	for i := 0; i < b.N; i++ {
		r := analysis.ProgressiveOnOff(p, 2.0, 8.0)
		if r.ECT <= 0 {
			b.Fatal("bad result")
		}
	}
}
