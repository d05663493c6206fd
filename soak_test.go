package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// TestSoakLargeScenario is a long-running robustness check at
// paper-like scale: a 500-leaf tree, 60 attackers, 150 simulated
// seconds. It asserts global invariants rather than specific numbers.
// Skipped under -short.
func TestSoakLargeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := experiments.DefaultTreeConfig()
	cfg.Topology.Leaves = 500
	cfg.NumAttackers = 60
	cfg.AttackRate = 0.05e6
	cfg.Duration = 150
	cfg.AttackEnd = 140
	cfg.Pool.Epochs = 100
	cfg.Placement = topology.Even
	cfg.TraceCap = 100000

	r, err := experiments.RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput samples are sane fractions.
	for i, v := range r.Throughput.Values {
		if v < 0 || v > 1.05 {
			t.Fatalf("sample %d out of range: %v", i, v)
		}
	}
	// Every capture is a distinct leaf (never a router or server).
	seen := map[netsim.NodeID]bool{}
	for _, c := range r.Captures {
		if seen[c.Attacker] {
			t.Fatalf("host %d captured twice", c.Attacker)
		}
		seen[c.Attacker] = true
	}
	if len(r.Captures) > cfg.NumAttackers {
		t.Fatalf("captured %d > %d attackers (false positive)", len(r.Captures), cfg.NumAttackers)
	}
	// At this rate and duration the vast majority must be captured.
	if len(r.Captures) < cfg.NumAttackers*9/10 {
		t.Fatalf("captured only %d of %d over 14 epochs", len(r.Captures), cfg.NumAttackers)
	}
	// Recovery at scale: final third above the attack trough.
	trough := r.Throughput.MeanBetween(cfg.AttackStart, cfg.AttackStart+15)
	late := r.Throughput.MeanBetween(100, 140)
	if late < trough {
		t.Fatalf("no recovery at scale: trough %.3f late %.3f", trough, late)
	}
}

// TestSoakChaos is the fault-cocktail soak: a mid-size reliable HBP
// run under simultaneous Bernoulli loss, Gilbert–Elliott control
// bursts, a scheduled link outage, and random router crash/restart
// cycles. It asserts invariants (in-range samples, no duplicate or
// false-positive captures, a mostly complete capture set, bounded
// give-ups) and that the whole cocktail is deterministic. Skipped
// under -short.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	run := func() *experiments.TreeResult {
		cfg := experiments.DefaultTreeConfig()
		cfg.Topology.Leaves = 200
		cfg.NumAttackers = 30
		cfg.AttackRate = 0.1e6
		cfg.Reliable = true
		cfg.Faults = &faults.Plan{
			Seed: cfg.Seed + 42,
			Loss: faults.LossSpec{Prob: 0.01},
			Burst: &faults.GilbertElliott{
				PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.8, CtrlOnly: true,
			},
			Windows: []faults.DownWindow{{Link: 3, Start: 30, End: 40}},
		}
		cfg.FaultCrashes = 5
		cfg.FaultRestartAfter = 4
		r, err := experiments.RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	for i, v := range r.Throughput.Values {
		if v < 0 || v > 1.05 {
			t.Fatalf("sample %d out of range: %v", i, v)
		}
	}
	seen := map[netsim.NodeID]bool{}
	for _, c := range r.Captures {
		if seen[c.Attacker] {
			t.Fatalf("host %d captured twice", c.Attacker)
		}
		seen[c.Attacker] = true
	}
	if len(r.Captures) > 30 {
		t.Fatalf("captured %d > 30 attackers (false positive)", len(r.Captures))
	}
	if len(r.Captures) < 30*8/10 {
		t.Fatalf("captured only %d of 30 under chaos", len(r.Captures))
	}
	if r.FaultLossCount == 0 {
		t.Fatal("fault plan injected no loss")
	}
	if r.Ctrl.GiveUps > r.Ctrl.Retransmissions {
		t.Fatalf("give-ups %d exceed retransmissions %d", r.Ctrl.GiveUps, r.Ctrl.Retransmissions)
	}
	r2 := run()
	if len(r.Captures) != len(r2.Captures) || r.Ctrl != r2.Ctrl ||
		r.FaultLossCount != r2.FaultLossCount || r.FaultOutageCount != r2.FaultOutageCount {
		t.Fatalf("chaos run not deterministic:\n%+v %d\n%+v %d",
			r.Ctrl, len(r.Captures), r2.Ctrl, len(r2.Captures))
	}
}

// TestSoakScenarioSupervisor is the scenario-service chaos soak: a
// worker pool digesting a concurrent mix of healthy, panicking,
// deadline-overrunning, event-limited, infra-crashing and cancelled
// cases. The load-bearing assertion is isolation — every healthy run's
// fingerprint must be bit-identical to executing the same spec solo,
// no matter what its neighbors were doing — followed by a clean
// graceful drain. Run it under -race; the supervisor is the only
// concurrent component in the repo. Skipped under -short.
func TestSoakScenarioSupervisor(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario soak skipped in -short mode")
	}
	healthySeeds := []int64{101, 202, 303}
	healthySpec := func(seed int64) scenario.CaseSpec {
		return scenario.CaseSpec{
			Name: fmt.Sprintf("healthy-%d", seed),
			Tree: &scenario.TreeSpec{Leaves: 60, DurationSec: 40, Seed: seed},
		}
	}
	// Solo fingerprints first, outside any supervision.
	solo := map[int64]string{}
	for _, seed := range healthySeeds {
		spec := healthySpec(seed)
		res, err := scenario.RunCaseSolo(&spec, seed)
		if err != nil {
			t.Fatalf("solo run seed %d: %v", seed, err)
		}
		solo[seed] = res.Fingerprint
	}

	r := scenario.NewRunner(scenario.Config{
		Workers:     4,
		QueueCap:    32,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	}, nil)
	r.Start()
	s, err := r.CreateSuite("chaos-soak")
	if err != nil {
		t.Fatal(err)
	}

	submit := func(spec scenario.CaseSpec) *scenario.Run {
		run, err := r.Submit(s.ID, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Name, err)
		}
		return &run
	}
	var healthy []*scenario.Run
	for _, seed := range healthySeeds {
		healthy = append(healthy, submit(healthySpec(seed)))
	}
	panicker := submit(scenario.CaseSpec{
		Name: "panicker", PanicForTest: true,
		Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: 9},
	})
	overrunner := submit(scenario.CaseSpec{
		Name: "overrunner", WallDeadlineSec: 0.05,
		Tree: &scenario.TreeSpec{Leaves: 60, DurationSec: 3000, Seed: 10},
	})
	limited := submit(scenario.CaseSpec{
		Name: "event-limited", MaxEvents: 1000,
		Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: 11},
	})
	flaky := submit(scenario.CaseSpec{
		Name: "flaky", InfraCrashProb: 0.5, MaxAttempts: 5,
		Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: 12},
	})
	victim := submit(scenario.CaseSpec{
		Name: "victim",
		Tree: &scenario.TreeSpec{Leaves: 60, DurationSec: 3000, Seed: 13},
	})
	go func() {
		// Cancel the victim shortly after submission, racing the pool.
		time.Sleep(50 * time.Millisecond)
		r.Cancel(victim.ID) //nolint:errcheck
	}()

	// Graceful drain: everything admitted must reach a terminal state.
	// The two long runs (overrunner by wall deadline, victim by cancel)
	// terminate early by supervision, so a generous timeout only
	// guards against a hung pool.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for i, run := range healthy {
		got, _ := r.GetRun(run.ID)
		if got.State != scenario.StatePassed {
			t.Fatalf("healthy run %d: state %s (err %+v)", i, got.State, got.Error)
		}
		if got.Result.Fingerprint != solo[healthySeeds[i]] {
			t.Fatalf("cross-run interference: healthy seed %d fingerprint %s != solo %s",
				healthySeeds[i], got.Result.Fingerprint, solo[healthySeeds[i]])
		}
		if !got.Result.Tree.Leak.Clean() {
			t.Fatalf("healthy run %d leaked: %+v", i, got.Result.Tree.Leak)
		}
	}
	expect := func(run *scenario.Run, state scenario.State, kind scenario.ErrorKind) {
		t.Helper()
		got, _ := r.GetRun(run.ID)
		if got.State != state || got.Error == nil || got.Error.Kind != kind {
			t.Fatalf("%s: state %s err %+v, want %s/%s", got.Spec.Name, got.State, got.Error, state, kind)
		}
	}
	expect(panicker, scenario.StateFailed, scenario.ErrPanic)
	expect(overrunner, scenario.StateFailed, scenario.ErrWallDeadline)
	expect(limited, scenario.StateFailed, scenario.ErrEventLimit)
	if got, _ := r.GetRun(victim.ID); got.State != scenario.StateCancelled {
		t.Fatalf("victim: state %s (err %+v), want cancelled", got.State, got.Error)
	}
	// The flaky run either survived a retry or exhausted its attempts;
	// both are legitimate outcomes of a 0.5 crash rate, but it must
	// have terminated through the retry path deterministically.
	if got, _ := r.GetRun(flaky.ID); got.State != scenario.StatePassed && got.State != scenario.StateFailed {
		t.Fatalf("flaky: state %s", got.State)
	}
}
