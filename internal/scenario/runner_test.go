package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// quickTree is a small, fast tree case for lifecycle tests.
func quickTree(seed int64) *TreeSpec {
	return &TreeSpec{Leaves: 40, DurationSec: 20, Seed: seed}
}

// longTree runs long enough to be reliably caught in-flight.
func longTree(seed int64) *TreeSpec {
	return &TreeSpec{Leaves: 60, DurationSec: 2000, Seed: seed}
}

func newTestRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	r := NewRunner(cfg, nil)
	r.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.Drain(ctx) //nolint:errcheck // best effort in cleanup
	})
	return r
}

func waitTerminal(t *testing.T, r *Runner, id string, timeout time.Duration) Run {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		run, ok := r.GetRun(id)
		if !ok {
			t.Fatalf("run %s vanished", id)
		}
		if run.State.Terminal() {
			return run
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in %s after %v", id, run.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustSuite(t *testing.T, r *Runner) *Suite {
	t.Helper()
	s, err := r.CreateSuite("test")
	if err != nil {
		t.Fatalf("CreateSuite: %v", err)
	}
	return s
}

func TestRunnerHealthyRun(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 2})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{Name: "healthy", Tree: quickTree(7)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("state = %s (err %+v), want passed", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", got.Attempts)
	}
	if got.Result == nil || got.Result.Tree == nil || got.Result.Fingerprint == "" {
		t.Fatalf("missing result: %+v", got.Result)
	}
	if !got.Result.Tree.Leak.Clean() {
		t.Fatalf("passed run reported a dirty teardown: %+v", got.Result.Tree.Leak)
	}
}

// TestRunnerFingerprintMatchesSolo: a supervised first attempt must be
// bit-identical to executing the same spec outside the service.
func TestRunnerFingerprintMatchesSolo(t *testing.T) {
	spec := CaseSpec{Name: "fp", Tree: quickTree(11)}
	solo, err := runAttempt(context.Background(), &spec, 11, 0)
	if err != nil {
		t.Fatalf("solo attempt: %v", err)
	}

	r := newTestRunner(t, Config{Workers: 2})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("state = %s (err %+v)", got.State, got.Error)
	}
	if got.Result.Fingerprint != solo.Fingerprint {
		t.Fatalf("supervised fingerprint %s != solo %s", got.Result.Fingerprint, solo.Fingerprint)
	}
}

// TestRunnerPanicIsolation: a panicking case is recorded as failed
// with the stack, and the worker survives to run the next case.
func TestRunnerPanicIsolation(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1})
	s := mustSuite(t, r)
	boom, err := r.Submit(s.ID, CaseSpec{Name: "boom", PanicForTest: true, Tree: quickTree(1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, boom.ID, 30*time.Second)
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != ErrPanic {
		t.Fatalf("state = %s, err %+v; want failed/panic", got.State, got.Error)
	}
	if !strings.Contains(got.Error.Stack, "executeCase") {
		t.Fatalf("panic stack missing executor frame:\n%s", got.Error.Stack)
	}
	// Panics are not retried.
	if got.Attempts != 1 {
		t.Fatalf("panic retried: attempts = %d", got.Attempts)
	}
	// The single worker must still be alive.
	next, err := r.Submit(s.ID, CaseSpec{Name: "after", Tree: quickTree(2)})
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if got := waitTerminal(t, r, next.ID, 60*time.Second); got.State != StatePassed {
		t.Fatalf("run after panic: state = %s (err %+v)", got.State, got.Error)
	}
}

// crashPattern finds a base seed whose first n attempt-seeds crash and
// whose (n+1)-th survives under the given crash probability.
func crashPattern(prob float64, n int) (int64, bool) {
	ic := faults.InfraCrash{Prob: prob}
	for base := int64(1); base < 50000; base++ {
		ok := true
		for a := 1; a <= n; a++ {
			if !ic.Roll(AttemptSeed(base, a)) {
				ok = false
				break
			}
		}
		if ok && !ic.Roll(AttemptSeed(base, n+1)) {
			return base, true
		}
	}
	return 0, false
}

// TestRunnerRetriesInfraFault: injected harness mortality is retried
// with fresh attempt seeds until an attempt survives.
func TestRunnerRetriesInfraFault(t *testing.T) {
	base, ok := crashPattern(0.6, 2)
	if !ok {
		t.Fatal("no seed with crash-crash-survive pattern")
	}
	r := newTestRunner(t, Config{Workers: 1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{
		Name: "flaky", Tree: quickTree(base), InfraCrashProb: 0.6, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("state = %s (err %+v), want passed after retries", got.State, got.Error)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
}

// TestRunnerRetryCap: attempts are capped, and exhausting them on
// infra faults fails the run with the infra kind.
func TestRunnerRetryCap(t *testing.T) {
	base, ok := crashPattern(0.6, 3)
	if !ok {
		t.Fatal("no seed with three crashing attempts")
	}
	r := newTestRunner(t, Config{Workers: 1, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{
		Name: "doomed", Tree: quickTree(base), InfraCrashProb: 0.6, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 30*time.Second)
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != ErrInfra {
		t.Fatalf("state = %s, err %+v; want failed/infra-fault", got.State, got.Error)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (capped)", got.Attempts)
	}
}

func TestAttemptSeedDerivation(t *testing.T) {
	if AttemptSeed(42, 1) != 42 {
		t.Fatal("attempt 1 must run the base seed unchanged")
	}
	seen := map[int64]int{42: 1}
	for a := 2; a <= 10; a++ {
		s := AttemptSeed(42, a)
		if prev, dup := seen[s]; dup {
			t.Fatalf("attempt %d seed collides with attempt %d", a, prev)
		}
		seen[s] = a
		if s != AttemptSeed(42, a) {
			t.Fatalf("attempt %d seed not deterministic", a)
		}
	}
}

func TestBackoffShape(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		d := Backoff(base, cap, 7, attempt)
		if d != Backoff(base, cap, 7, attempt) {
			t.Fatalf("attempt %d backoff not deterministic", attempt)
		}
		raw := base << (attempt - 1)
		if raw > cap {
			raw = cap
		}
		lo := raw / 2
		if d < lo || d > cap {
			t.Fatalf("attempt %d backoff %v outside [%v, %v]", attempt, d, lo, cap)
		}
	}
	if Backoff(base, cap, 7, 1) == Backoff(base, cap, 8, 1) {
		t.Log("two seeds drew the same jitter (possible, but worth knowing)")
	}
}

// TestRunnerEventLimit: the simulated-event deadline fails the run
// without retry.
func TestRunnerEventLimit(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{Name: "runaway", Tree: quickTree(3), MaxEvents: 500})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 30*time.Second)
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != ErrEventLimit {
		t.Fatalf("state = %s, err %+v; want failed/event-limit", got.State, got.Error)
	}
	if got.Attempts != 1 {
		t.Fatalf("event-limit retried: attempts = %d", got.Attempts)
	}
}

// TestRunnerWallDeadline: an attempt overrunning its wall-clock budget
// fails with the wall-deadline kind.
func TestRunnerWallDeadline(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{
		Name: "slow", Tree: longTree(5), WallDeadlineSec: 0.05,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 30*time.Second)
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != ErrWallDeadline {
		t.Fatalf("state = %s, err %+v; want failed/wall-deadline", got.State, got.Error)
	}
}

// TestRunnerCancelRunning: cancelling an in-flight run stops it at the
// next checkpoint as cancelled, not failed.
func TestRunnerCancelRunning(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, CaseSpec{Name: "victim", Tree: longTree(6)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := r.GetRun(run.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started (state %s)", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Cancel(run.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 30*time.Second)
	if got.State != StateCancelled || got.Error == nil || got.Error.Kind != ErrCancelled {
		t.Fatalf("state = %s, err %+v; want cancelled", got.State, got.Error)
	}
}

// TestRunnerQueueBackpressure: a full queue rejects with ErrQueueFull
// and queued runs can be cancelled before ever running.
func TestRunnerQueueBackpressure(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1, QueueCap: 2})
	s := mustSuite(t, r)
	blocker, err := r.Submit(s.ID, CaseSpec{Name: "blocker", Tree: longTree(8)})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	// Wait for the worker to take the blocker so the queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := r.GetRun(blocker.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var queued []*Run
	for i := 0; i < 2; i++ {
		run, err := r.Submit(s.ID, CaseSpec{Name: "queued", Tree: quickTree(int64(20 + i))})
		if err != nil {
			t.Fatalf("Submit queued %d: %v", i, err)
		}
		queued = append(queued, &run)
	}
	if _, err := r.Submit(s.ID, CaseSpec{Name: "overflow", Tree: quickTree(30)}); err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// Cancel a queued run: it must terminate without running.
	if err := r.Cancel(queued[1].ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if got, _ := r.GetRun(queued[1].ID); got.State != StateCancelled {
		t.Fatalf("queued cancel: state = %s", got.State)
	}
	// Unblock and drain: the surviving queued run completes.
	if err := r.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	if got := waitTerminal(t, r, queued[0].ID, 60*time.Second); got.State != StatePassed {
		t.Fatalf("queued run: state = %s (err %+v)", got.State, got.Error)
	}
}

// TestRunnerDrainFinishesQueuedWork: a graceful drain runs everything
// already admitted before returning.
func TestRunnerDrainFinishesQueuedWork(t *testing.T) {
	r := NewRunner(Config{Workers: 2}, nil)
	r.Start()
	s, err := r.CreateSuite("drain")
	if err != nil {
		t.Fatalf("CreateSuite: %v", err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		run, err := r.Submit(s.ID, CaseSpec{Name: "work", Tree: quickTree(int64(40 + i))})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, run.ID)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		if got, _ := r.GetRun(id); got.State != StatePassed {
			t.Fatalf("after drain, run %s state = %s (err %+v)", id, got.State, got.Error)
		}
	}
	if _, err := r.Submit(s.ID, CaseSpec{Name: "late", Tree: quickTree(1)}); err != ErrDraining {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestRunnerForcedDrain: an expired drain deadline cancels live runs
// instead of waiting them out.
func TestRunnerForcedDrain(t *testing.T) {
	r := NewRunner(Config{Workers: 1}, nil)
	r.Start()
	s, err := r.CreateSuite("forced")
	if err != nil {
		t.Fatalf("CreateSuite: %v", err)
	}
	run, err := r.Submit(s.ID, CaseSpec{Name: "endless", Tree: longTree(9)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := r.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain err = %v, want DeadlineExceeded", err)
	}
	got, _ := r.GetRun(run.ID)
	if got.State != StateCancelled {
		t.Fatalf("after forced drain, state = %s (err %+v)", got.State, got.Error)
	}
}
