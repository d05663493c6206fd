package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bounded"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/jsonl"
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

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.WallDeadline <= 0 {
		c.WallDeadline = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	return c
}

// ErrQueueFull is the admission-control rejection: the submission
// queue is at capacity and the client should back off and retry.
var ErrQueueFull = errors.New("scenario: submission queue full")

// ErrDraining rejects submissions during shutdown.
var ErrDraining = errors.New("scenario: runner is draining")

// ErrJournal rejects an admission whose journal record could not be
// written; the admission is withdrawn and the client may retry.
var ErrJournal = errors.New("scenario: journal write failed")

// Suite groups runs for reporting.
type Suite struct {
	ID   string   `json:"id"`
	Name string   `json:"name"`
	Runs []string `json:"runs"`
}

// Runner is the supervisor: a bounded submission queue feeding a fixed
// worker pool, each run executing under its own context with
// deadlines, panic isolation, bounded retry and journaled state
// transitions.
type Runner struct {
	cfg Config

	mu        sync.Mutex
	queue     *bounded.Queue[*Run]
	runs      map[string]*Run
	suites    map[string]*Suite
	cancels   map[string]context.CancelFunc
	nextSuite int
	nextRun   int
	draining  bool

	wake    chan struct{}
	drainCh chan struct{}
	wg      sync.WaitGroup
}

// NewRunner builds a runner and recovers journaled history: runs the
// previous daemon process died holding come back as StateInterrupted,
// visible over the API and (optionally) resubmittable.
func NewRunner(cfg Config, recovered []Entry) *Runner {
	cfg = cfg.withDefaults()
	r := &Runner{
		cfg:     cfg,
		queue:   bounded.NewQueue[*Run](cfg.QueueCap),
		runs:    map[string]*Run{},
		suites:  map[string]*Suite{},
		cancels: map[string]context.CancelFunc{},
		wake:    make(chan struct{}, 1),
		drainCh: make(chan struct{}),
	}
	suiteNames, runs := Recover(recovered)
	for id, name := range suiteNames {
		r.suites[id] = &Suite{ID: id, Name: name}
		jsonl.BumpCounter(&r.nextSuite, id)
	}
	for _, run := range runs {
		r.runs[run.ID] = run
		if s := r.suites[run.Suite]; s != nil {
			s.Runs = append(s.Runs, run.ID)
		}
		jsonl.BumpCounter(&r.nextRun, run.ID)
	}
	return r
}

// Start launches the worker pool.
func (r *Runner) Start() {
	for i := 0; i < r.cfg.Workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
}

// CreateSuite registers a named suite and journals it.
func (r *Runner) CreateSuite(name string) (*Suite, error) {
	if name == "" {
		return nil, fmt.Errorf("scenario: suite has no name")
	}
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, ErrDraining
	}
	r.nextSuite++
	s := &Suite{ID: fmt.Sprintf("s-%d", r.nextSuite), Name: name}
	r.suites[s.ID] = s
	r.mu.Unlock()
	if err := r.cfg.Journal.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: s.ID, SuiteName: name}); err != nil {
		r.mu.Lock()
		delete(r.suites, s.ID)
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return s, nil
}

// Submit validates and enqueues one case under the suite, returning
// the run's snapshot at admission. A full queue returns ErrQueueFull —
// the HTTP layer maps it to 503 + Retry-After.
func (r *Runner) Submit(suiteID string, spec CaseSpec) (Run, error) {
	if err := spec.Validate(); err != nil {
		return Run{}, err
	}
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return Run{}, ErrDraining
	}
	s := r.suites[suiteID]
	if s == nil {
		r.mu.Unlock()
		return Run{}, fmt.Errorf("scenario: no suite %q", suiteID)
	}
	run := &Run{
		ID:          fmt.Sprintf("r-%d", r.nextRun+1),
		Suite:       suiteID,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
	}
	if !r.queue.Push(run) {
		r.mu.Unlock()
		return Run{}, ErrQueueFull
	}
	r.nextRun++
	r.runs[run.ID] = run
	s.Runs = append(s.Runs, run.ID)
	snap := run.Snapshot()
	r.mu.Unlock()

	if err := r.cfg.Journal.Record(Entry{
		Type: EntrySubmitted, Time: snap.SubmittedAt,
		Suite: suiteID, Run: snap.ID, Spec: &spec,
	}); err != nil {
		// Admitted in memory but unknown to a restart: withdraw the
		// run rather than let it execute unrecorded.
		r.cancel(snap.ID, "submission could not be journaled") //nolint:errcheck // the journal is already failing
		return Run{}, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return snap, nil
}

// Resubmit re-queues a recovered interrupted run as a fresh run.
func (r *Runner) Resubmit(runID string) (Run, error) {
	r.mu.Lock()
	old := r.runs[runID]
	if old == nil || old.State != StateInterrupted {
		r.mu.Unlock()
		return Run{}, fmt.Errorf("scenario: run %q is not an interrupted run", runID)
	}
	suite, spec := old.Suite, old.Spec
	r.mu.Unlock()
	return r.Submit(suite, spec)
}

// Cancel stops a run: queued runs terminate immediately, running runs
// get their context cancelled and finish as StateCancelled at the
// next checkpoint. Cancelling a terminal run is a no-op.
func (r *Runner) Cancel(runID string) error {
	return r.cancel(runID, "cancelled while queued")
}

// cancel is Cancel with the message a still-queued run is finalized
// under.
func (r *Runner) cancel(runID, whyQueued string) error {
	r.mu.Lock()
	run := r.runs[runID]
	if run == nil {
		r.mu.Unlock()
		return fmt.Errorf("scenario: no run %q", runID)
	}
	switch run.State {
	case StateQueued:
		run.State = StateCancelled
		run.Error = &RunError{Kind: ErrCancelled, Message: whyQueued}
		run.FinishedAt = time.Now()
		r.mu.Unlock()
		return r.cfg.Journal.Record(Entry{
			Type: EntryFinished, Time: run.FinishedAt,
			Suite: run.Suite, Run: run.ID, State: StateCancelled, Error: run.Error,
		})
	case StateRunning:
		cancel := r.cancels[runID]
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		r.mu.Unlock()
		return nil
	}
}

// GetRun returns a snapshot of the run.
func (r *Runner) GetRun(id string) (Run, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	run := r.runs[id]
	if run == nil {
		return Run{}, false
	}
	return run.Snapshot(), true
}

// GetSuite returns the suite and snapshots of its runs.
func (r *Runner) GetSuite(id string) (Suite, []Run, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.suites[id]
	if s == nil {
		return Suite{}, nil, false
	}
	runs := make([]Run, 0, len(s.Runs))
	for _, rid := range s.Runs {
		if run := r.runs[rid]; run != nil {
			runs = append(runs, run.Snapshot())
		}
	}
	return *s, runs, true
}

// Suites lists all suites.
func (r *Runner) Suites() []Suite {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Suite, 0, len(r.suites))
	for _, s := range r.suites {
		out = append(out, *s)
	}
	return out
}

// QueueDepth returns the current backlog and capacity.
func (r *Runner) QueueDepth() (depth, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queue.Len(), r.queue.Cap()
}

// Health is the live/schedulable snapshot readyz serves: a daemon is
// alive whenever it answers, but only schedulable when it is not
// draining and has queue headroom — the distinction a fleet
// coordinator (and the CI smoke) needs to route work.
type Health struct {
	QueueDepth int  `json:"queue"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining"`
}

// Ready reports whether the runner can accept a submission right now.
func (h Health) Ready() bool {
	return !h.Draining && h.QueueDepth < h.QueueCap
}

// Health returns the current schedulability snapshot.
func (r *Runner) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	inFlight := 0
	for _, run := range r.runs {
		if run.State == StateRunning {
			inFlight++
		}
	}
	return Health{
		QueueDepth: r.queue.Len(),
		QueueCap:   r.queue.Cap(),
		InFlight:   inFlight,
		Draining:   r.draining,
	}
}

// Drain stops admissions, lets queued and running work finish, and
// returns when the pool is idle. If ctx expires first every live run
// is cancelled (finishing as StateCancelled) and Drain still waits for
// the workers to unwind before returning ctx's error — the pool never
// outlives the call.
func (r *Runner) Drain(ctx context.Context) error {
	r.mu.Lock()
	if !r.draining {
		r.draining = true
		close(r.drainCh)
	}
	r.mu.Unlock()

	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		r.cancelAll()
		<-done
		return ctx.Err()
	}
}

// cancelAll cancels every queued and running run.
func (r *Runner) cancelAll() {
	r.mu.Lock()
	var ids []string
	for id, run := range r.runs {
		if !run.State.Terminal() {
			ids = append(ids, id)
		}
	}
	r.mu.Unlock()
	for _, id := range ids {
		r.Cancel(id) //nolint:errcheck // best effort during forced drain
	}
}

func (r *Runner) worker() {
	defer r.wg.Done()
	for {
		run := r.next()
		if run == nil {
			return
		}
		r.execute(run)
	}
}

// next blocks for work; nil means the runner is draining and the
// queue is empty.
func (r *Runner) next() *Run {
	for {
		r.mu.Lock()
		if run, ok := r.queue.Pop(); ok {
			more := r.queue.Len() > 0
			r.mu.Unlock()
			if more {
				// Cascade the wakeup: a dropped signal (the wake
				// channel holds one token) must not strand queued work
				// behind a single busy worker.
				select {
				case r.wake <- struct{}{}:
				default:
				}
			}
			return run
		}
		draining := r.draining
		r.mu.Unlock()
		if draining {
			return nil
		}
		select {
		case <-r.wake:
		case <-r.drainCh:
		}
	}
}

// execute supervises one run to a terminal state.
func (r *Runner) execute(run *Run) {
	r.mu.Lock()
	if run.State != StateQueued { // cancelled while queued
		r.mu.Unlock()
		return
	}
	run.State = StateRunning
	run.StartedAt = time.Now()
	spec := run.Spec
	baseCtx, cancel := context.WithCancel(context.Background())
	r.cancels[run.ID] = cancel
	r.mu.Unlock()
	defer func() {
		cancel()
		r.mu.Lock()
		delete(r.cancels, run.ID)
		r.mu.Unlock()
	}()

	maxAttempts := spec.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = r.cfg.MaxAttempts
	}
	baseSeed := spec.BaseSeed()

	for attempt := 1; ; attempt++ {
		r.mu.Lock()
		run.Attempts = attempt
		r.mu.Unlock()
		r.cfg.Journal.Record(Entry{ //nolint:errcheck // lifecycle goes on if the disk is gone
			Type: EntryStarted, Time: time.Now(),
			Suite: run.Suite, Run: run.ID, Attempt: attempt,
		})

		result, err := SupervisedAttempt(baseCtx, &spec, baseSeed, attempt, r.cfg.WallDeadline, r.cfg.MaxEvents)
		if err == nil {
			r.finish(run, StatePassed, nil, result)
			return
		}
		re := ClassifyError(err, attempt, baseCtx.Err() != nil)
		if re.Kind == ErrInfra && attempt < maxAttempts {
			if !r.backoff(baseCtx, baseSeed, attempt) {
				r.finish(run, StateCancelled,
					&RunError{Kind: ErrCancelled, Message: "cancelled during retry backoff", Attempt: attempt}, nil)
				return
			}
			continue
		}
		state := StateFailed
		if re.Kind == ErrCancelled {
			state = StateCancelled
		}
		r.finish(run, state, re, nil)
		return
	}
}

// finish records the terminal state and journals it.
func (r *Runner) finish(run *Run, state State, re *RunError, result *CaseResult) {
	r.mu.Lock()
	run.State = state
	run.Error = re
	run.Result = result
	run.FinishedAt = time.Now()
	e := Entry{
		Type: EntryFinished, Time: run.FinishedAt,
		Suite: run.Suite, Run: run.ID, State: state, Error: re,
	}
	if result != nil {
		e.Fingerprint = result.Fingerprint
	}
	r.mu.Unlock()
	r.cfg.Journal.Record(e) //nolint:errcheck // the in-memory state is already terminal
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

// backoff sleeps the jittered exponential delay before the next
// attempt; false means the run was cancelled while waiting.
func (r *Runner) backoff(ctx context.Context, baseSeed int64, attempt int) bool {
	d := Backoff(r.cfg.BackoffBase, r.cfg.BackoffMax, baseSeed, attempt)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
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
