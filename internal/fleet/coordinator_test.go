package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// quickCase is a case small enough for subsecond execution, mirroring
// the scenario package's test scenarios.
func quickCase(name string, seed int64) scenario.CaseSpec {
	return scenario.CaseSpec{Name: name, Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: seed}}
}

// soloFingerprint computes the ground-truth fingerprint the fleet
// result must match bit-for-bit.
func soloFingerprint(t *testing.T, spec scenario.CaseSpec, seed int64) string {
	t.Helper()
	res, err := scenario.RunCaseSolo(&spec, seed)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return res.Fingerprint
}

// fastCfg is a coordinator tuned for test-speed leases.
func fastCfg() Config {
	return Config{
		LeaseDuration: 150 * time.Millisecond,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	}
}

// startWorker launches a worker against the coordinator and returns
// its stopper.
func startWorker(t *testing.T, coord Coord, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := NewWorker(cfg, coord)
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // stopped via cancel
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// waitTerminal polls until the run terminates or the deadline passes.
func waitTerminal(t *testing.T, c *Coordinator, id string) scenario.RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.GetRun(id)
		if !ok {
			t.Fatalf("run %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := c.GetRun(id)
	t.Fatalf("run %s not terminal after 30s: %+v", id, st)
	return scenario.RunStatus{}
}

// waitLeased polls until the run has been dispatched at least once.
func waitLeased(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := c.GetRun(id); st.Dispatches >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s never leased", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetHappyPath: a two-worker fleet executes a suite and every
// fingerprint is bit-identical to a solo run of the same spec.
func TestFleetHappyPath(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()
	startWorker(t, c, WorkerConfig{Name: "w1"})
	startWorker(t, c, WorkerConfig{Name: "w2", Capacity: 2})

	suite, err := c.CreateSuite("happy")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{3, 4, 5, 6}
	ids := make([]string, 0, len(seeds))
	for i, seed := range seeds {
		st, err := c.Submit(suite.ID, quickCase(string(rune('a'+i)), seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, id := range ids {
		st := waitTerminal(t, c, id)
		if st.State != scenario.StatePassed {
			t.Fatalf("run %s: %s (%+v)", id, st.State, st.Error)
		}
		if st.SeedAttempt != 1 {
			t.Fatalf("run %s: healthy path ran seed attempt %d", id, st.SeedAttempt)
		}
		want := soloFingerprint(t, st.Spec, seeds[i])
		if st.Result.Fingerprint != want {
			t.Fatalf("run %s: fleet fingerprint %s != solo %s", id, st.Result.Fingerprint, want)
		}
	}
	stats := c.Stats()
	if stats.Admitted != 4 || stats.Completed != 4 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestLeaseFailoverSoloIdentical: the first worker crashes holding the
// lease; the re-dispatch lands on a healthy worker and still produces
// the solo fingerprint, because failover never advances the seed.
func TestLeaseFailoverSoloIdentical(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()

	// Crash-certain worker takes the lease first and dies with it.
	startChaosWorker(t, c, WorkerConfig{Name: "doomed"}, &workerPlan{Seed: 5, CrashProb: 1})
	suite, _ := c.CreateSuite("failover")
	st, err := c.Submit(suite.ID, quickCase("case", 7))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the doomed worker has burned its dispatch.
	waitLeased(t, c, st.ID)
	startWorker(t, c, WorkerConfig{Name: "healthy"})

	got := waitTerminal(t, c, st.ID)
	if got.State != scenario.StatePassed {
		t.Fatalf("failover run: %s (%+v)", got.State, got.Error)
	}
	if got.Dispatches < 2 {
		t.Fatalf("expected a re-dispatch, got %d dispatches", got.Dispatches)
	}
	if got.SeedAttempt != 1 {
		t.Fatalf("failover advanced the seed attempt to %d", got.SeedAttempt)
	}
	if want := soloFingerprint(t, got.Spec, 7); got.Result.Fingerprint != want {
		t.Fatalf("failover fingerprint %s != solo %s", got.Result.Fingerprint, want)
	}
	if s := c.Stats(); s.LeaseExpiries == 0 || s.Redispatches == 0 {
		t.Fatalf("failover left no lease-expiry trace: %+v", s)
	}
}

// grantWatch counts the worker calls that reach a coordinator after
// its first granted lease.
type grantWatch struct {
	*Coordinator
	granted atomic.Bool
	after   atomic.Int64
}

func (g *grantWatch) count() {
	if g.granted.Load() {
		g.after.Add(1)
	}
}

func (g *grantWatch) Lease(workerID string) (*scenario.Assignment, error) {
	g.count()
	a, err := g.Coordinator.Lease(workerID)
	if a != nil {
		g.granted.Store(true)
	}
	return a, err
}

func (g *grantWatch) Heartbeat(workerID, runID string, dispatch int) (scenario.Directive, error) {
	g.count()
	return g.Coordinator.Heartbeat(workerID, runID, dispatch)
}

func (g *grantWatch) Complete(workerID, runID string, dispatch int, out scenario.Outcome) error {
	g.count()
	return g.Coordinator.Complete(workerID, runID, dispatch, out)
}

// TestCrashedWorkerGoesSilent: once a lease draws a crash, the worker
// is dead to the coordinator — neither of its two slots leases,
// heartbeats or reports again while the run fails over, and a healthy
// worker finishes it at the first seed attempt.
func TestCrashedWorkerGoesSilent(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()
	watch := &grantWatch{Coordinator: c}
	startChaosWorker(t, watch, WorkerConfig{Name: "doomed", Capacity: 2}, &workerPlan{Seed: 5, CrashProb: 1})
	suite, _ := c.CreateSuite("silent")
	st, err := c.Submit(suite.ID, quickCase("case", 7))
	if err != nil {
		t.Fatal(err)
	}
	waitLeased(t, c, st.ID)
	startWorker(t, c, WorkerConfig{Name: "healthy"})

	got := waitTerminal(t, c, st.ID)
	if got.State != scenario.StatePassed || got.SeedAttempt != 1 || got.Dispatches < 2 {
		t.Fatalf("failover run: %s at seed attempt %d after %d dispatches (%+v)", got.State, got.SeedAttempt, got.Dispatches, got.Error)
	}
	if n := watch.after.Load(); n != 0 {
		t.Fatalf("%d calls of the crashed worker reached the coordinator", n)
	}
}

// TestDispatchBudgetWorkerLost: when every dispatch dies, the run
// terminates with a typed worker-lost failure instead of cycling
// forever — never lost, never unbounded.
func TestDispatchBudgetWorkerLost(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxDispatches = 2
	c := NewCoordinator(cfg, nil)
	c.Start()
	defer c.Stop()
	startChaosWorker(t, c, WorkerConfig{Name: "d1"}, &workerPlan{Seed: 1, CrashProb: 1})
	startChaosWorker(t, c, WorkerConfig{Name: "d2"}, &workerPlan{Seed: 1, CrashProb: 1})

	suite, _ := c.CreateSuite("budget")
	st, err := c.Submit(suite.ID, quickCase("case", 9))
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, c, st.ID)
	if got.State != scenario.StateFailed {
		t.Fatalf("budget exhaustion: %s (%+v)", got.State, got.Error)
	}
	if got.Error == nil || got.Error.Kind != scenario.ErrWorkerLost {
		t.Fatalf("expected %s, got %+v", scenario.ErrWorkerLost, got.Error)
	}
	if got.Dispatches != 2 {
		t.Fatalf("budget of 2 granted %d dispatches", got.Dispatches)
	}
	if s := c.Stats(); s.WorkersLost != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestInfraRetryAdvancesSeed: a *reported* infrastructure fault — as
// opposed to a vanished worker — retries under a derived seed, the
// same discipline as the local runner, and the result matches a solo
// run at that derived seed.
func TestInfraRetryAdvancesSeed(t *testing.T) {
	// Find a seed whose first attempt rolls an infra crash and whose
	// second doesn't; the roll is a pure function of (prob, seed).
	const prob = 0.5
	var base int64
	for s := int64(1); s < 200; s++ {
		first := faults.InfraCrash{Prob: prob}.Roll(scenario.AttemptSeed(s, 1))
		second := faults.InfraCrash{Prob: prob}.Roll(scenario.AttemptSeed(s, 2))
		if first && !second {
			base = s
			break
		}
	}
	if base == 0 {
		t.Fatal("no seed with crash-then-clean rolls in 1..200")
	}

	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()
	startWorker(t, c, WorkerConfig{Name: "w"})

	spec := quickCase("case", base)
	spec.InfraCrashProb = prob
	suite, _ := c.CreateSuite("infra")
	st, err := c.Submit(suite.ID, spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, c, st.ID)
	if got.State != scenario.StatePassed {
		t.Fatalf("infra retry: %s (%+v)", got.State, got.Error)
	}
	if got.SeedAttempt != 2 {
		t.Fatalf("reported infra fault should advance the seed attempt, got %d", got.SeedAttempt)
	}
	clean := spec
	clean.InfraCrashProb = 0
	if want := soloFingerprint(t, clean, scenario.AttemptSeed(base, 2)); got.Result.Fingerprint != want {
		t.Fatalf("retry fingerprint %s != solo-at-derived-seed %s", got.Result.Fingerprint, want)
	}
	if s := c.Stats(); s.InfraRetries != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestSlowWorkerDuplicateCompletion: a worker that finishes but
// reports after its lease expired races the re-dispatched copy; the
// run completes exactly once and the loser is counted as a duplicate.
func TestSlowWorkerDuplicateCompletion(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()

	startChaosWorker(t, c, WorkerConfig{Name: "tortoise"}, &workerPlan{Seed: 2, SlowProb: 1, SlowBy: 700 * time.Millisecond})
	suite, _ := c.CreateSuite("slow")
	st, err := c.Submit(suite.ID, quickCase("case", 11))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the tortoise to take the lease, then add the hare.
	waitLeased(t, c, st.ID)
	startWorker(t, c, WorkerConfig{Name: "hare"})

	got := waitTerminal(t, c, st.ID)
	if got.State != scenario.StatePassed {
		t.Fatalf("slow race: %s (%+v)", got.State, got.Error)
	}
	if want := soloFingerprint(t, got.Spec, 11); got.Result.Fingerprint != want {
		t.Fatalf("fingerprint %s != solo %s", got.Result.Fingerprint, want)
	}
	// Both reports eventually land; exactly one counts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.DuplicateCompletions >= 1 {
			if s.Completed != 1 {
				t.Fatalf("run completed %d times: %+v", s.Completed, s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no duplicate completion recorded: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancel: a queued run cancels immediately; a run held by a hung
// worker cancels at lease expiry — cancellation always terminates in
// bounded time, even when the worker never answers.
func TestCancel(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()

	suite, _ := c.CreateSuite("cancel")
	queued, err := c.Submit(suite.ID, quickCase("queued", 13))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.GetRun(queued.ID); got.State != scenario.StateCancelled {
		t.Fatalf("queued cancel: %s", got.State)
	}

	startChaosWorker(t, c, WorkerConfig{Name: "wedged"}, &workerPlan{Seed: 3, HangProb: 1})
	held, err := c.Submit(suite.ID, quickCase("held", 14))
	if err != nil {
		t.Fatal(err)
	}
	waitLeased(t, c, held.ID)
	if err := c.Cancel(held.ID); err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, c, held.ID)
	if got.State != scenario.StateCancelled {
		t.Fatalf("held cancel: %s (%+v)", got.State, got.Error)
	}

	// Cancelling a terminal run is a no-op, not an error.
	if err := c.Cancel(held.ID); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullRejects: admission control bounces the overflow with
// ErrQueueFull and counts it; nothing admitted is ever bounced.
func TestQueueFullRejects(t *testing.T) {
	cfg := fastCfg()
	cfg.QueueCap = 1
	c := NewCoordinator(cfg, nil)

	suite, _ := c.CreateSuite("full")
	if _, err := c.Submit(suite.ID, quickCase("a", 1)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(suite.ID, quickCase("b", 2))
	if !errors.Is(err, scenario.ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if s := c.Stats(); s.RejectedFull != 1 || s.Admitted != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if h := c.Health(); h.Ready() {
		t.Fatalf("full queue reports ready: %+v", h)
	}
}

// TestDrainStopsAdmissions: draining rejects new work and Health
// reports it.
func TestDrainStopsAdmissions(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	suite, _ := c.CreateSuite("drain")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(suite.ID, quickCase("late", 1)); !errors.Is(err, scenario.ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
	if _, err := c.CreateSuite("late"); !errors.Is(err, scenario.ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
	if _, err := c.Register(WorkerInfo{Name: "late"}); !errors.Is(err, scenario.ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
	if h := c.Health(); !h.Draining || h.Ready() {
		t.Fatalf("health: %+v", h)
	}
}

// TestWorkerRegistryBounds: the registry cap turns away the overflow
// worker.
func TestWorkerRegistryBounds(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxWorkers = 1
	c := NewCoordinator(cfg, nil)
	if _, err := c.Register(WorkerInfo{Name: "one"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(WorkerInfo{Name: "two"}); !errors.Is(err, scenario.ErrFleetFull) {
		t.Fatalf("expected ErrFleetFull, got %v", err)
	}
	if _, err := c.Lease("w-999"); !errors.Is(err, scenario.ErrUnknownWorker) {
		t.Fatalf("expected ErrUnknownWorker, got %v", err)
	}
}
