package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/asnet"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
)

// HierarchicalResult is one end-to-end hierarchical capture
// measurement: the inter-AS phase (HSM-to-HSM back-propagation) plus
// the intra-AS phase under either model.
type HierarchicalResult struct {
	// CT is the end-to-end capture time (attack start to zombie
	// stopped), or -1 when the attacker escaped.
	CT       float64
	Captured bool
	// AtAccess reports whether the embedded router-level traceback
	// stopped the zombie at its access router (always false for the
	// abstract model, which has no router level).
	AtAccess bool
	// StateClean reports whether every embedded per-AS defense
	// returned to its construction-time StateSize after teardown
	// (vacuously true for the abstract model).
	StateClean bool
}

// RunHierarchical measures hierarchical capture time on a transit
// chain of the given length — the two-level composition of Sec. 5.2:
// inter-AS honeypot sessions walk HSM-to-HSM to the attack-hosting
// stub AS, then the intra-AS phase (a fixed delay, or an embedded
// router-level traceback on the same clock) locates the zombie.
func RunHierarchical(ctx context.Context, transits int, embedded bool, seed int64) (*HierarchicalResult, error) {
	cfg := asnet.Config{Mode: asnet.Marking}
	var em *asnet.EmbeddedIntraAS
	if embedded {
		em = &asnet.EmbeddedIntraAS{Seed: seed}
		cfg.IntraAS = em
	}
	// Let the embedded cancel wave drain before stopping: session
	// teardown crosses the sub-AS routers hop by hop.
	ct, captured, err := runTransitChain(ctx, transits, cfg, "hier", seed, 2)
	if err != nil {
		return nil, err
	}
	res := &HierarchicalResult{CT: ct, Captured: captured, StateClean: true}
	if em != nil {
		res.AtAccess = res.Captured
		for _, sub := range em.Subs() {
			res.StateClean = res.StateClean && sub.Def.StateSize() == sub.Baseline()
			res.AtAccess = res.AtAccess && len(sub.Def.Captures()) > 0
			for _, c := range sub.Def.Captures() {
				res.AtAccess = res.AtAccess && capturedAtAccess(sub, c)
			}
		}
	}
	return res, nil
}

// runTransitChain is the AS-level capture rig: a server AS, transits
// transit ASes and an attacker AS in a chain, the AS-level defense on
// every AS, a pool of two servers with one active and 10 s epochs
// (hash chain label-seed), and a 25 pkt/s attacker starting at a seeded
// random phase of the first epoch. The run ends linger seconds after
// the first capture (at once for 0) or at 2000 s. ct is the capture
// time relative to the attack start, -1 without a capture.
func runTransitChain(ctx context.Context, transits int, cfg asnet.Config, label string, seed int64, linger float64) (ct float64, captured bool, err error) {
	ct = -1
	sim := newSim(ctx)
	g := asnet.NewGraph(sim)
	serverAS := g.AddAS(false)
	prev := serverAS
	for i := 0; i < transits; i++ {
		tr := g.AddAS(true)
		g.Connect(prev, tr)
		prev = tr
	}
	attackerAS := g.AddAS(false)
	g.Connect(prev, attackerAS)
	g.ComputeRoutes()
	def := asnet.NewDefense(g, 10, cfg)
	def.DeployAll()
	sched, err := asnet.NewSchedule([]byte(fmt.Sprintf("%s-%d", label, seed)), 2, 1, 0, 10, 0.2, 200)
	if err != nil {
		return 0, false, err
	}
	srv := asnet.NewServer(def, serverAS, sched)
	atk := asnet.NewAttacker(def, attackerAS, srv, 25)
	start := des.NewRNG(seed).Float64() * 10
	def.OnCapture = func(c asnet.Capture) {
		if captured {
			return
		}
		captured, ct = true, c.Time-start
		if linger > 0 {
			sim.After(linger, sim.Stop)
		} else {
			sim.Stop()
		}
	}
	sim.At(start, func() { atk.Start() })
	if err := sim.RunUntil(2000); err != nil {
		return 0, false, err
	}
	return ct, captured, nil
}

// capturedAtAccess reports whether the embedded capture blocked the
// zombie leaf's own access-router port.
func capturedAtAccess(sub *asnet.IntraASNet, c core.Capture) bool {
	for _, leaf := range sub.Tree.Leaves {
		if leaf.ID == c.Attacker {
			return sub.Tree.AccessRouter(leaf).ID == c.Router
		}
	}
	return false
}

// ExtHierarchical compares end-to-end hierarchical capture time under
// the abstract fixed-delay intra-AS model against the embedded
// router-level model, and both against the Sec. 7 analytical E[CT]
// (Eq. (3) for the inter-AS walk plus the intra-AS phase).
func ExtHierarchical(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Extension — hierarchical capture time: abstract vs embedded intra-AS phase (m=10s, p=0.5, 25 pkt/s)",
		Note: "embedded = per-stub-AS router-level core.Defense on the same clock; " +
			"'at access' = every zombie stopped at its own access router; " +
			"'state clean' = per-AS defense state back to baseline after teardown",
		Headers: []string{
			"AS hops", "abstract E[CT] (s)", "embedded E[CT] (s)", "Eq.(3)+T_intra (s)",
			"captured", "at access", "state clean",
		},
	}
	runs := scale.runsAtLeast(1)
	for _, transits := range []int{2, 4, 6} {
		var abs, emb []float64
		captured := 0
		atAccess, stateClean := true, true
		for r := 0; r < runs; r++ {
			seed := int64(r + 1)
			ra, err := RunHierarchical(scale.Ctx, transits, false, seed)
			if err != nil {
				return nil, err
			}
			re, err := RunHierarchical(scale.Ctx, transits, true, seed)
			if err != nil {
				return nil, err
			}
			if ra.Captured {
				captured++
				abs = append(abs, ra.CT)
			}
			if re.Captured {
				captured++
				emb = append(emb, re.CT)
			}
			atAccess = atAccess && re.AtAccess
			stateClean = stateClean && re.StateClean && ra.StateClean
		}
		model := analysis.BasicContinuous(analysis.Params{
			M: 10, P: 0.5, R: 25, H: transits + 1, Tau: 0.04,
		})
		t.AddRow(
			transits+1,
			fmt.Sprintf("%.1f", metrics.Mean(abs)),
			fmt.Sprintf("%.1f", metrics.Mean(emb)),
			fmt.Sprintf("%.1f", model.ECT+0.5),
			fmt.Sprintf("%d/%d", captured, 2*runs),
			fmt.Sprint(atAccess),
			fmt.Sprint(stateClean),
		)
	}
	return t, nil
}
