package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ValidationConfig is a Fig. 6 model-validation point: a string
// topology with one continuous attacker, basic honeypot
// back-propagation, and a (m, p, h) setting.
type ValidationConfig struct {
	// Hops is the attacker's router-hop distance h (string length).
	Hops int
	// EpochLen is m in seconds.
	EpochLen float64
	// HoneypotProb is p; it is realized as a pool of PoolSize servers
	// with k = round((1-p)·PoolSize) active.
	HoneypotProb float64
	// PoolSize is N (default 10, giving p granularity of 0.1).
	PoolSize int
	// RatePPS is the attack rate in packets/s (the paper's 0.1 Mb/s
	// ≈ 25 pkt/s at 500 B).
	RatePPS float64
	// PacketSize in bytes.
	PacketSize int
	// Runs is the number of independent runs averaged (the paper uses
	// 10).
	Runs int
	// Seed bases the per-run seeds.
	Seed int64
	// MaxEpochs caps each run's length in epochs (safety).
	MaxEpochs int
	// Context, when non-nil, installs the same cooperative
	// cancellation checkpoint as TreeConfig.Context in every run of
	// the sweep.
	Context context.Context `json:"-"`
}

// DefaultValidationConfig mirrors the Fig. 6 setup.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Hops:         10,
		EpochLen:     100,
		HoneypotProb: 0.3,
		PoolSize:     10,
		RatePPS:      25,
		PacketSize:   500,
		Runs:         10,
		Seed:         1,
		MaxEpochs:    400,
	}
}

// ValidationResult is the measured-vs-model outcome for one point.
type ValidationResult struct {
	Config ValidationConfig
	// MeanCT is the measured average capture time in seconds.
	MeanCT float64
	// StdCT is the sample standard deviation.
	StdCT float64
	// Model is the Eq. (3) bound for the same parameters.
	Model analysis.Result
	// Captured counts runs in which the attacker was captured.
	Captured int
}

// RunValidation measures average capture time on the string topology
// and evaluates Eq. (3) for comparison.
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	return runValidation(cfg, core.Config{}, analysis.BasicContinuous, "validate", 1000)
}

// RunValidationProgressive is the Eq. (4) analogue of RunValidation:
// progressive back-propagation against a continuous attacker whose
// rate is low enough that a single epoch cannot cover the whole path,
// so capture time scales with h (unlike basic's epoch-dominated
// bound).
func RunValidationProgressive(cfg ValidationConfig) (*ValidationResult, error) {
	return runValidation(cfg, core.Config{Progressive: true, Rho: 8}, analysis.ProgressiveContinuous, "validate-prog", 4000)
}

// runValidation averages capture time over cfg.Runs runs of one scheme
// (its defense config and closed form). label and seedMul keep each
// scheme's hash chains and RNG streams apart.
func runValidation(cfg ValidationConfig, defense core.Config, model func(analysis.Params) analysis.Result, label string, seedMul int64) (*ValidationResult, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 10
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 400
	}
	k := min(max(int(float64(cfg.PoolSize)*(1-cfg.HoneypotProb)+0.5), 1), cfg.PoolSize-1)
	if cfg.Hops < 1 || cfg.EpochLen <= 0 || cfg.RatePPS <= 0 || cfg.Runs < 1 {
		return nil, fmt.Errorf("experiments: bad validation config %+v", cfg)
	}

	rig := captureRig{
		hops: cfg.Hops, poolSize: cfg.PoolSize, k: k, epochLen: cfg.EpochLen, epochs: cfg.MaxEpochs,
		defense: defense, ctx: cfg.Context,
	}
	cts, err := rig.repeat(cfg.Runs, label, cfg.Seed, seedMul, func(host *netsim.Node, target netsim.NodeID, rng *des.RNG) starter {
		return spoofingCBR(host, target, cfg.RatePPS, cfg.PacketSize, rng, 10000)
	})
	if err != nil {
		return nil, err
	}
	res := &ValidationResult{Config: cfg, Captured: len(cts)}
	res.MeanCT = metrics.Mean(cts)
	res.StdCT = metrics.StdDev(cts)
	res.Model = model(analysis.Params{
		M:   cfg.EpochLen,
		P:   float64(cfg.PoolSize-k) / float64(cfg.PoolSize),
		R:   cfg.RatePPS,
		H:   cfg.Hops + 1, // leaf link + string routers
		Tau: 0.01,
	})
	return res, nil
}

// captureRig is the validation set-up of Sec. 7/8: one attacker at the
// end of a string of routers, a fully deployed defense, and a roaming
// pool of poolSize servers with k active. A run ends at the first
// capture or after epochs epochs.
type captureRig struct {
	hops, poolSize, k int
	epochLen          float64
	epochs            int
	chainSeed         string
	defense           core.Config
	// ctx, when non-nil, installs the cooperative cancellation
	// checkpoint of TreeConfig.Context.
	ctx context.Context
}

// starter is the attack source a rig run launches.
type starter interface{ Start() }

// run builds the rig, asks attack for the source (on the string's one
// leaf, against the pool's first server) and measures the time from
// the attack's start to its capture (-1 without one). startAt is
// called after the pool has started and before the source emits — the
// order the callers' RNG streams were recorded in.
func (r captureRig) run(attack func(host *netsim.Node, target netsim.NodeID, pool *roaming.Pool) starter, startAt func() float64) (ct float64, captured bool, err error) {
	sim := newSim(r.ctx)
	tr := topology.NewString(sim, r.hops, r.poolSize,
		topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
	pool, err := roaming.NewPool(sim, tr.Servers, roaming.Config{
		N: r.poolSize, K: r.k, EpochLen: r.epochLen, Guard: 0.2,
		Epochs:    r.epochs,
		ChainSeed: []byte(r.chainSeed),
	})
	if err != nil {
		return 0, false, err
	}
	capturedAt := -1.0
	if _, _, err := deployHBP(tr.Net, pool, tr.Servers, tr.IsHost, r.defense, func(c core.Capture) {
		if capturedAt < 0 {
			capturedAt = c.Time
		}
		sim.Stop()
	}, nil); err != nil {
		return 0, false, err
	}
	atk := attack(tr.Leaves[0], tr.Servers[0].ID, pool)
	pool.Start()
	start := startAt()
	sim.At(start, atk.Start)
	if err := sim.RunUntil(float64(r.epochs) * r.epochLen); err != nil {
		return 0, false, err
	}
	if capturedAt < 0 {
		return -1, false, nil
	}
	return capturedAt - start, true, nil
}

// repeat runs the rig runs times: run i on hash chain label-seed-i with
// RNG stream seed·seedMul+i, which draws the attack (see attack) and
// then its start, a random phase of the first epoch so the average is
// not locked to the schedule. It returns the capture times of the runs
// that captured.
func (r captureRig) repeat(runs int, label string, seed, seedMul int64, attack func(host *netsim.Node, target netsim.NodeID, rng *des.RNG) starter) ([]float64, error) {
	var cts []float64
	for i := 0; i < runs; i++ {
		r.chainSeed = fmt.Sprintf("%s-%d-%d", label, seed, i)
		rng := des.NewRNG(seed*seedMul + int64(i))
		ct, ok, err := r.run(func(host *netsim.Node, target netsim.NodeID, _ *roaming.Pool) starter {
			return attack(host, target, rng)
		}, func() float64 { return rng.Float64() * r.epochLen })
		if err != nil {
			return nil, err
		}
		if ok {
			cts = append(cts, ct)
		}
	}
	return cts, nil
}

// spoofingCBR is a constant-rate attacker against a fixed server that
// spoofs each packet's source from 4096 addresses above spoofBase.
func spoofingCBR(host *netsim.Node, target netsim.NodeID, ratePPS float64, size int, rng *des.RNG, spoofBase int) *traffic.CBR {
	return &traffic.CBR{
		Node:   host,
		Rate:   ratePPS * float64(size) * 8,
		Size:   size,
		Dest:   func() netsim.NodeID { return target },
		Source: func() netsim.NodeID { return netsim.NodeID(rng.Intn(4096) + spoofBase) },
	}
}
