package scenario

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
)

// Config tunes the runner's supervision defaults; each case can
// tighten them per spec.
type Config struct {
	// Workers is the execution pool size (default 2).
	Workers int
	// QueueCap bounds the submission queue; a full queue rejects with
	// ErrQueueFull — backpressure, never unbounded growth (default
	// 64).
	QueueCap int
	// WallDeadline is the default per-attempt wall-clock deadline
	// (default 2 m).
	WallDeadline time.Duration
	// MaxEvents is the default simulated-event deadline; 0 means no
	// limit.
	MaxEvents uint64
	// MaxAttempts is the default attempt cap for retryable faults
	// (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential
	// backoff between retry attempts (defaults 100 ms and 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Journal, when non-nil, receives every lifecycle transition.
	Journal *Journal
}

// withDefaults fills the executor defaults; the coordinator fills the
// rest.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.WallDeadline <= 0 {
		c.WallDeadline = 2 * time.Minute
	}
	return c
}

// ErrQueueFull is the admission-control rejection: the submission
// queue is at capacity and the client should back off and retry.
var ErrQueueFull = errors.New("scenario: submission queue full")

// ErrDraining rejects submissions, registrations and leases during
// shutdown.
var ErrDraining = errors.New("scenario: draining")

// ErrJournal rejects an admission whose journal record could not be
// written; the admission is withdrawn and the client may retry.
var ErrJournal = errors.New("scenario: journal write failed")

// Suite groups runs for reporting.
type Suite struct {
	ID   string   `json:"id"`
	Name string   `json:"name"`
	Runs []string `json:"runs"`
}

// Runner is the local daemon's supervisor: a Coordinator whose
// workers are Workers in-process executors. Each executor leases
// straight from the coordinator — no HTTP, heartbeat or lease sweeper —
// runs the attempt under its own context with deadlines and panic
// isolation, and reports it with Complete, so admission, retry,
// journaling, restart recovery and the bounded run history are the
// coordinator's.
type Runner struct {
	*Coordinator
	cfg Config
	wg  sync.WaitGroup
}

// NewRunner builds a runner and replays journaled history: runs the
// previous process died holding return to the queue and run again once
// the runner starts.
func NewRunner(cfg Config, recovered []Entry) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{
		Coordinator: NewCoordinator(CoordinatorConfig{
			QueueCap:    cfg.QueueCap,
			MaxAttempts: cfg.MaxAttempts,
			BackoffBase: cfg.BackoffBase,
			BackoffMax:  cfg.BackoffMax,
			MaxWorkers:  cfg.Workers,
			Journal:     cfg.Journal,
		}, recovered),
		cfg: cfg,
	}
}

// Start registers and launches the executors.
func (r *Runner) Start() {
	r.mu.Lock()
	started := r.stop != nil
	if !started {
		r.stop = make(chan struct{}) // open: empty leases park, and no sweeper runs
	}
	r.mu.Unlock()
	if started {
		return
	}
	for i := 0; i < r.cfg.Workers; i++ {
		id, err := r.Register(WorkerInfo{Name: "executor"})
		if err != nil { // draining already
			return
		}
		r.wg.Add(1)
		go r.executor(id)
	}
}

// Drain stops admissions, lets queued and running work finish, and
// returns when every admitted run is terminal and the executors have
// stopped. If ctx expires first every live run is cancelled (finishing
// as StateCancelled) and Drain still waits for the executors to unwind
// before returning ctx's error — the pool never outlives the call.
func (r *Runner) Drain(ctx context.Context) error {
	err := r.drain(ctx, r.settledLocked)
	if err != nil {
		r.mu.Lock()
		var live []string
		for id, rec := range r.runs {
			if !rec.run.State.Terminal() {
				live = append(live, id)
			}
		}
		r.mu.Unlock()
		for _, id := range live {
			r.Cancel(id) //nolint:errcheck // best effort during forced drain
		}
		r.drain(context.Background(), r.settledLocked) //nolint:errcheck // cannot expire
	}
	r.Stop()
	r.wg.Wait()
	return err
}

// settledLocked reports whether every admitted run is terminal: the
// runner's drain finishes its queue.
func (r *Runner) settledLocked() bool {
	for _, rec := range r.runs {
		if !rec.run.State.Terminal() {
			return false
		}
	}
	return true
}

// executor is one pool slot: lease, execute, report, until Stop. With
// nothing to lease it waits for a wake, or at most LeaseWait, which
// also paces retry backoff gates and a journal that refused a
// dispatch.
func (r *Runner) executor(id string) {
	defer r.wg.Done()
	for {
		a, wake, err := r.tryLease(id)
		if a != nil {
			r.execute(id, a)
			continue
		}
		if wake == nil && err == nil {
			return // stopped
		}
		t := time.NewTimer(LeaseWait)
		select {
		case <-wake:
		case <-t.C:
		}
		t.Stop()
	}
}

// execute runs lease a's attempt under a context Cancel can stop, and
// reports the outcome.
func (r *Runner) execute(id string, a *Assignment) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	r.watch(a, stop)
	res, err := SupervisedAttempt(ctx, &a.Spec, a.BaseSeed, a.SeedAttempt, r.cfg.WallDeadline, r.cfg.MaxEvents)
	r.Complete(id, a.Run, a.Dispatch, NewOutcome(res, err, a.SeedAttempt, ctx.Err() != nil)) //nolint:errcheck // the in-memory state is already terminal
}

// ClassifyError maps an executor error to its typed RunError.
// cancelled reports whether the run's own (not per-attempt) context
// was cancelled, which distinguishes a client/drain cancel from an
// attempt wall deadline. The local runner and fleet workers both
// report this taxonomy.
func ClassifyError(err error, attempt int, cancelled bool) *RunError {
	var pe *panicError
	var le *leakError
	switch {
	case errors.As(err, &pe):
		return &RunError{Kind: ErrPanic, Message: pe.value, Stack: pe.stack, Attempt: attempt}
	case errors.As(err, &le):
		return &RunError{Kind: ErrLeak, Message: le.Error(), Attempt: attempt}
	case errors.Is(err, faults.ErrInfraCrash):
		return &RunError{Kind: ErrInfra, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, des.ErrEventLimit):
		return &RunError{Kind: ErrEventLimit, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, context.Canceled) && cancelled:
		return &RunError{Kind: ErrCancelled, Message: err.Error(), Attempt: attempt}
	case errors.Is(err, context.DeadlineExceeded):
		return &RunError{Kind: ErrWallDeadline, Message: err.Error(), Attempt: attempt}
	default:
		return &RunError{Kind: ErrRun, Message: err.Error(), Attempt: attempt}
	}
}

// AttemptSeed derives the scenario seed for a retry attempt. Attempt 1
// runs the base seed unchanged — a supervised first attempt is
// bit-identical to a solo run — and later attempts mix the attempt
// number in (des.DeriveSeed, the same splitmix derivation the sharded
// engine uses for per-shard RNG streams) so a retried run explores
// fresh randomness rather than deterministically re-hitting a
// seed-dependent failure.
func AttemptSeed(base int64, attempt int) int64 {
	if attempt <= 1 {
		return base
	}
	return des.DeriveSeed(base, int64(attempt))
}

// Backoff computes the deterministic jittered exponential delay before
// the given attempt's retry: base·2^(attempt-1), capped at max, scaled
// by a jitter in [0.5, 1.5) drawn from (seed, attempt). Determinism
// makes retry schedules replayable in tests; jitter keeps a burst of
// simultaneous failures from retrying in lockstep.
func Backoff(base, max time.Duration, seed int64, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	rng := des.NewRNG(AttemptSeed(seed, attempt+1) ^ 0x5bf03635)
	jitter := 0.5 + rng.Float64()
	j := time.Duration(float64(d) * jitter)
	if j > max {
		j = max
	}
	return j
}
