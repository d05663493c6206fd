package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ThresholdPoint is one activation-threshold measurement under
// scanner noise.
type ThresholdPoint struct {
	Threshold int
	// FalseActivations counts honeypot requests fired in scanner-only
	// epochs (pure overhead).
	FalseActivations int64
	// SessionsWasted counts router sessions created before the real
	// attack begins.
	SessionsWasted int64
	// CaptureTime is the real attacker's capture delay (-1 if never).
	CaptureTime float64
}

// RunThreshold measures the paper's false-positive trade-off
// (Sec. 5.3): benign scanners probe the pool throughout; a real
// attacker starts late. Low activation thresholds burn sessions on
// scanner noise; high thresholds delay (or lose) the real capture.
func RunThreshold(ctx context.Context, threshold int, scanners int, scannerGap float64, seed int64) (*ThresholdPoint, error) {
	sim := newSim(ctx)
	p := topology.DefaultParams()
	p.Leaves = 40
	p.Seed = seed
	tr := topology.NewTree(sim, p)
	pcfg := roaming.Config{
		N: p.Servers, K: 3, EpochLen: 10, Guard: 0.3, Epochs: 60,
		ChainSeed: []byte(fmt.Sprintf("thr-%d", seed)),
	}
	pool, err := roaming.NewPool(sim, tr.Servers, pcfg)
	if err != nil {
		return nil, err
	}
	attackStart := 200.0
	pt := &ThresholdPoint{Threshold: threshold, CaptureTime: -1}
	def, _, err := deployHBP(tr.Net, pool, tr.Servers, tr.IsHost, core.Config{ActivationThreshold: threshold}, func(c core.Capture) {
		if pt.CaptureTime < 0 {
			pt.CaptureTime = c.Time - attackStart
		}
	}, nil)
	if err != nil {
		return nil, err
	}

	rng := des.NewRNG(seed)
	attackHosts, rest := tr.PlaceAttackers(1, topology.Even, seed)
	for i := 0; i < scanners && i < len(rest); i++ {
		sc := traffic.NewScanner(rest[i], tr.Servers, scannerGap, rng)
		sim.At(0.1, sc.Start)
	}

	spoof := []netsim.NodeID{7001, 7002}
	atk := traffic.NewAttacker(attackHosts[0], tr.Servers,
		traffic.AttackerConfig{Rate: 2e5, Size: 500, SpoofSpace: spoof}, rng)
	sim.At(attackStart, atk.Start)

	pool.Start()
	// Snapshot noise-phase overhead just before the attack.
	sim.At(attackStart-0.001, func() {
		for _, s := range tr.Servers {
			if sd := def.ServerDefense(s.ID); sd != nil {
				pt.FalseActivations += sd.RequestsSent
			}
		}
		for _, r := range tr.Routers {
			if ra := def.Router(r.ID); ra != nil {
				pt.SessionsWasted += ra.SessionsCreated
			}
		}
	})
	if err := sim.RunUntil(600); err != nil {
		return nil, err
	}
	return pt, nil
}

// ExtThreshold sweeps the activation threshold under scanner noise —
// the trade-off the paper leaves as future work ("selection of an
// appropriate threshold depends on the type of the protected
// service").
func ExtThreshold(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Extension — activation threshold vs benign scanner noise (Sec. 5.3 future work)",
		Note: "10 scanners probing the pool (~1 probe/s each); real attacker (50 pkt/s) starts at t=200s; " +
			"false activations / wasted sessions counted before the attack",
		Headers: []string{"threshold", "false activations", "wasted sessions", "capture time (s)"},
	}
	for _, thr := range []int{1, 3, 10, 50} {
		pt, err := RunThreshold(scale.Ctx, thr, 10, 1.0, 5)
		if err != nil {
			return nil, err
		}
		ct := "-"
		if pt.CaptureTime >= 0 {
			ct = fmt.Sprintf("%.1f", pt.CaptureTime)
		}
		t.AddRow(pt.Threshold, pt.FalseActivations, pt.SessionsWasted, ct)
	}
	return t, nil
}
