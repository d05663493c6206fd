package scenario

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bounded"
	"repro/internal/jsonl"
)

// CoordinatorConfig tunes the coordinator.
type CoordinatorConfig struct {
	// QueueCap bounds the admission queue; a full queue rejects with
	// ErrQueueFull (default 64). Internal re-queues after failover are
	// exempt from the cap — admission control must never lose an
	// already-admitted run.
	QueueCap int
	// LeaseDuration is how long a dispatch survives without a
	// heartbeat (default 15 s).
	LeaseDuration time.Duration
	// SweepInterval is how often expired leases are collected
	// (default LeaseDuration/4).
	SweepInterval time.Duration
	// MaxDispatches bounds lease grants per run; exhausting it
	// records a typed worker-lost failure (default 5).
	MaxDispatches int
	// MaxAttempts bounds seed attempts for *reported* infra faults
	// when a spec names no max_attempts of its own (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential
	// backoff before a re-dispatch (defaults 100 ms and 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxWorkers caps the registry (default 64).
	MaxWorkers int
	// Journal, when non-nil, receives every assignment/completion.
	Journal *Journal
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 15 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseDuration / 4
	}
	if c.MaxDispatches <= 0 {
		c.MaxDispatches = 5
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
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 64
	}
	return c
}

const (
	// LeaseWait bounds how long a Lease with nothing to hand out parks
	// on the coordinator before answering "no work". It equals the
	// worker's idle poll interval, so an idle fleet sends no more lease
	// requests than a polling one and a worker told to stop while
	// parked still returns within one poll.
	LeaseWait = 50 * time.Millisecond
	// HistoryCap is how many terminal runs the coordinator keeps in
	// memory; older ones are evicted, live and on journal replay, and
	// their outcome stays in the journal only.
	HistoryCap = 256
)

// runRec is the coordinator's per-run state: the client-visible run
// plus its lease position. All fields are guarded by the coordinator
// lock.
type runRec struct {
	run *Run

	dispatches  int    // leases granted so far
	seedAttempt int    // seed attempt the next/current dispatch runs at
	worker      string // current lease holder ("" when none)
	dispatch    int    // current lease's dispatch number
	leaseExpiry time.Time
	notBefore   time.Time // backoff gate while queued for re-dispatch
	cancelReq   bool
	stop        context.CancelFunc // cancels an in-process lease's attempt (see watch)
}

// workerRec is one registered worker.
type workerRec struct {
	info     WorkerInfo
	inFlight int
}

// Coordinator owns the run lifecycle both daemons serve: a bounded
// admission queue, a worker registry, leases with heartbeat renewal,
// re-dispatch with backoff and budget, first-completion-wins dedup and
// a crash-safe journal. Runner drives it with in-process executors;
// internal/fleet serves its worker API to remote ones. Every admitted
// run completes exactly once, with a fingerprint bit-identical to
// RunCaseSolo at its seed attempt, or ends in a recorded typed
// failure.
type Coordinator struct {
	cfg CoordinatorConfig

	mu         sync.Mutex
	queue      *bounded.Queue[string] // fresh admissions (cap = QueueCap)
	requeue    []string               // failover re-queues, FIFO, budget-bounded
	history    *bounded.Queue[string] // terminal run IDs, oldest first (cap = HistoryCap)
	runs       map[string]*runRec     // every non-terminal run plus the history
	suites     map[string]*Suite
	workers    map[string]*workerRec
	stats      Stats
	nextSuite  int
	nextRun    int
	nextWorker int
	draining   bool
	// wake is closed, and cleared, whenever a parked Lease or a Drain
	// may find a different answer: a submission, a re-queue, a released
	// lease, a finalized run, the start of a drain, Stop. It exists
	// only while someone waits on it.
	wake chan struct{}

	// stop is non-nil between Start and Stop, while empty leases park;
	// sweepDone is the lease sweeper's exit (nil when none runs).
	stop      chan struct{}
	sweepDone chan struct{}
}

// NewCoordinator builds a coordinator, replaying journaled history:
// the newest HistoryCap terminal runs are restored as-is and every
// orphaned in-flight or queued run returns to the dispatch queue with
// its budget intact.
func NewCoordinator(cfg CoordinatorConfig, recoveredEntries []Entry) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		queue:   bounded.NewQueue[string](cfg.QueueCap),
		history: bounded.NewQueue[string](HistoryCap),
		runs:    map[string]*runRec{},
		suites:  map[string]*Suite{},
		workers: map[string]*workerRec{},
	}
	suiteNames, runs, finished := replay(recoveredEntries)
	// Memory holds what it would hold had this generation lived
	// through the journal: the newest HistoryCap terminal runs, in the
	// order they finished.
	evicted := map[*runRec]bool{}
	if n := len(finished) - HistoryCap; n > 0 {
		for _, rec := range finished[:n] {
			evicted[rec] = true
		}
		finished = finished[n:]
	}
	for _, rec := range finished {
		c.history.Push(rec.run.ID)
	}
	for _, e := range recoveredEntries {
		// Worker IDs stay unique across generations: a survivor's
		// stale ID must draw ErrUnknownWorker, never alias a worker
		// that registers after the restart.
		jsonl.BumpCounter(&c.nextWorker, e.Worker)
	}
	for id, name := range suiteNames {
		c.suites[id] = &Suite{ID: id, Name: name}
		jsonl.BumpCounter(&c.nextSuite, id)
	}
	for _, rec := range runs {
		jsonl.BumpCounter(&c.nextRun, rec.run.ID)
		c.stats.Admitted++
		if rec.run.State.Terminal() {
			c.stats.Completed++
		}
		if evicted[rec] {
			continue
		}
		rec.seedAttempt = max(rec.seedAttempt, 1)
		c.runs[rec.run.ID] = rec
		if s := c.suites[rec.run.Suite]; s != nil {
			s.Runs = append(s.Runs, rec.run.ID)
		}
		if !rec.run.State.Terminal() {
			// Orphaned: the previous generation died holding it.
			// Requeue it — the exactly-once dedup makes automatic
			// resubmission safe, and a possibly still-running worker's
			// late report will simply win or be ignored.
			c.requeue = append(c.requeue, rec.run.ID)
		}
	}
	return c
}

// Start opens the coordinator, so that empty leases park from now on,
// and launches the lease sweeper.
func (c *Coordinator) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop, c.sweepDone = make(chan struct{}), make(chan struct{})
	go c.sweep(c.stop, c.sweepDone)
}

// sweep expires leases every SweepInterval until stop closes.
func (c *Coordinator) sweep(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.ExpireLeases(time.Now())
		case <-stop:
			return
		}
	}
}

// Stop halts the lease sweeper and releases parked leases
// (idempotent). Lease parks only between Start and Stop.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.sweepDone
	c.stop, c.sweepDone = nil, nil
	c.wakeLocked()
	c.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if done != nil {
		<-done
	}
}

// ---- client API ----

// CreateSuite registers a named suite and journals it.
func (c *Coordinator) CreateSuite(name string) (*Suite, error) {
	if name == "" {
		return nil, fmt.Errorf("scenario: suite has no name")
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	c.nextSuite++
	s := &Suite{ID: fmt.Sprintf("s-%d", c.nextSuite), Name: name}
	c.suites[s.ID] = s
	c.mu.Unlock()
	if err := c.cfg.Journal.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: s.ID, SuiteName: name}); err != nil {
		c.mu.Lock()
		delete(c.suites, s.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return s, nil
}

// Submit validates and admits one case under the suite. A full queue
// returns ErrQueueFull — 503 + Retry-After at the HTTP layer.
func (c *Coordinator) Submit(suiteID string, spec CaseSpec) (RunStatus, error) {
	if err := spec.Validate(); err != nil {
		return RunStatus{}, err
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return RunStatus{}, ErrDraining
	}
	s := c.suites[suiteID]
	if s == nil {
		c.mu.Unlock()
		return RunStatus{}, fmt.Errorf("scenario: no suite %q", suiteID)
	}
	run := &Run{
		ID:          fmt.Sprintf("r-%d", c.nextRun+1),
		Suite:       suiteID,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
	}
	if !c.queue.Push(run.ID) {
		c.stats.RejectedFull++
		c.mu.Unlock()
		return RunStatus{}, ErrQueueFull
	}
	c.nextRun++
	rec := &runRec{run: run, seedAttempt: 1}
	c.runs[run.ID] = rec
	s.Runs = append(s.Runs, run.ID)
	c.stats.Admitted++
	status := c.statusLocked(rec)
	c.mu.Unlock()

	if err := c.cfg.Journal.Record(Entry{
		Type: EntrySubmitted, Time: run.SubmittedAt,
		Suite: suiteID, Run: run.ID, Spec: &spec,
	}); err != nil {
		// Admitted in memory but unknown to a restart: withdraw the
		// run rather than let it dispatch unrecorded.
		c.cancel(run.ID, "submission could not be journaled") //nolint:errcheck // the journal is already failing
		return RunStatus{}, fmt.Errorf("%w: %w", ErrJournal, err)
	}
	// Wake a parked lease only now, so the dispatch it journals lands
	// after the submission.
	c.mu.Lock()
	c.wakeLocked()
	c.mu.Unlock()
	return status, nil
}

// Cancel stops a run: queued runs terminate immediately; leased runs
// get DirectiveAbort on their next heartbeat (an in-process attempt is
// cancelled at once) and finalize as cancelled when the worker reports
// — or at lease expiry if it never does. The request itself is
// journaled before Cancel returns, so an acknowledged cancel survives
// a restart instead of the run silently re-executing. Cancelling a
// terminal run is a no-op.
func (c *Coordinator) Cancel(runID string) error {
	return c.cancel(runID, "cancelled while queued")
}

// cancel is Cancel with the message a still-queued run is finalized
// under.
func (c *Coordinator) cancel(runID, whyQueued string) error {
	c.mu.Lock()
	rec := c.runs[runID]
	if rec == nil {
		c.mu.Unlock()
		return fmt.Errorf("scenario: no run %q", runID)
	}
	if rec.run.State.Terminal() {
		c.mu.Unlock()
		return nil
	}
	if rec.worker == "" { // queued
		entry := c.finalizeLocked(rec, Outcome{
			State: StateCancelled,
			Error: &RunError{Kind: ErrCancelled, Message: whyQueued},
		}, "")
		c.mu.Unlock()
		return c.cfg.Journal.Record(entry)
	}
	rec.cancelReq = true
	if rec.stop != nil {
		rec.stop()
	}
	entry := Entry{
		Type: EntryCancelRequested, Time: time.Now(),
		Suite: rec.run.Suite, Run: runID,
	}
	c.mu.Unlock()
	// Journal before acknowledging: an acked cancel living only in
	// memory would vanish with a coordinator crash, and recovery would
	// requeue and re-execute a run the client was told is stopping.
	return c.cfg.Journal.Record(entry)
}

// GetRun returns a snapshot of the run.
func (c *Coordinator) GetRun(id string) (RunStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.runs[id]
	if rec == nil {
		return RunStatus{}, false
	}
	return c.statusLocked(rec), true
}

// GetSuite returns the suite and snapshots of its runs.
func (c *Coordinator) GetSuite(id string) (Suite, []RunStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.suites[id]
	if s == nil {
		return Suite{}, nil, false
	}
	runs := make([]RunStatus, 0, len(s.Runs))
	for _, rid := range s.Runs {
		if rec := c.runs[rid]; rec != nil {
			runs = append(runs, c.statusLocked(rec))
		}
	}
	return suiteCopy(s), runs, true
}

// Suites lists all suites.
func (c *Coordinator) Suites() []Suite {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Suite, 0, len(c.suites))
	for _, s := range c.suites {
		out = append(out, suiteCopy(s))
	}
	return out
}

// suiteCopy snapshots a suite under the coordinator lock. Its run list
// is copied too: eviction deletes from it in place.
func suiteCopy(s *Suite) Suite {
	out := *s
	out.Runs = slices.Clone(s.Runs)
	return out
}

// Stats returns a copy of the accounting counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Health returns the coordinator's schedulability snapshot.
func (c *Coordinator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Health{
		QueueDepth: c.queue.Len() + len(c.requeue),
		QueueCap:   c.queue.Cap(),
		InFlight:   c.inFlightLocked(),
		Workers:    len(c.workers),
		Draining:   c.draining,
	}
}

// statusLocked snapshots a run under the coordinator lock.
func (c *Coordinator) statusLocked(rec *runRec) RunStatus {
	return RunStatus{
		Run:         rec.run.Snapshot(),
		Worker:      rec.worker,
		Dispatches:  rec.dispatches,
		SeedAttempt: rec.seedAttempt,
	}
}

// ---- worker API ----

// Register admits a worker to the registry and returns its unique ID.
func (c *Coordinator) Register(info WorkerInfo) (string, error) {
	if info.Name == "" {
		return "", fmt.Errorf("scenario: worker has no name")
	}
	if info.Capacity <= 0 {
		info.Capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return "", ErrDraining
	}
	if len(c.workers) >= c.cfg.MaxWorkers {
		return "", ErrFleetFull
	}
	c.nextWorker++
	id := fmt.Sprintf("w-%d", c.nextWorker)
	c.workers[id] = &workerRec{info: info}
	return id, nil
}

// Lease hands the worker its next assignment. When there is nothing
// to lease — empty queue, backoff gates, or the worker at capacity — it
// parks for up to LeaseWait, waking on anything that may change that,
// and answers nil if nothing did. A draining coordinator grants
// nothing: its queue stays in the journal for the next generation.
func (c *Coordinator) Lease(workerID string) (*Assignment, error) {
	return c.LeaseContext(context.Background(), workerID)
}

// LeaseContext is Lease that also stops parking when ctx ends: the
// HTTP route passes its request context, so a worker that hung up
// neither holds a handler nor is handed a run it can no longer receive.
func (c *Coordinator) LeaseContext(ctx context.Context, workerID string) (*Assignment, error) {
	a, wake, err := c.grant(ctx, workerID)
	if wake == nil {
		return a, err
	}
	timer := time.NewTimer(LeaseWait)
	defer timer.Stop()
	for {
		select {
		case <-wake:
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			return nil, nil
		}
		if a, wake, err = c.grant(ctx, workerID); wake == nil {
			return a, err
		}
	}
}

// grant is tryLease for a worker: it grants nothing once Drain has
// begun, or once ctx has ended (a hang-up that raced a wake still
// wins).
func (c *Coordinator) grant(ctx context.Context, workerID string) (*Assignment, <-chan struct{}, error) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining || ctx.Err() != nil {
		return nil, nil, nil
	}
	return c.tryLease(workerID)
}

// tryLease grants the worker its next assignment without waiting. When
// there is none and the caller may park (the coordinator is started),
// it also returns the channel that is closed when it is worth asking
// again; wake is nil whenever a or err is set.
func (c *Coordinator) tryLease(workerID string) (a *Assignment, wake <-chan struct{}, err error) {
	now := time.Now()
	c.mu.Lock()
	w := c.workers[workerID]
	if w == nil {
		c.mu.Unlock()
		return nil, nil, ErrUnknownWorker
	}
	var rec *runRec
	if w.inFlight < w.info.Capacity {
		rec = c.nextEligibleLocked(now)
	}
	if rec == nil {
		if c.stop != nil {
			wake = c.waitLocked()
		}
		c.mu.Unlock()
		return nil, wake, nil
	}
	if rec.cancelReq {
		// A journal-recovered cancel request: the client was told this
		// run is stopping, so finalize it instead of re-dispatching.
		entry := c.finalizeLocked(rec, Outcome{
			State: StateCancelled,
			Error: &RunError{Kind: ErrCancelled, Message: "cancel requested before coordinator restart"},
		}, "")
		c.mu.Unlock()
		if err := c.cfg.Journal.Record(entry); err != nil {
			return nil, nil, err
		}
		return c.tryLease(workerID)
	}
	rec.dispatches++
	rec.dispatch = rec.dispatches
	rec.worker = workerID
	rec.leaseExpiry = now.Add(c.cfg.LeaseDuration)
	rec.run.State = StateRunning
	rec.run.StartedAt = now
	rec.run.Attempts = rec.dispatches
	w.inFlight++
	a = &Assignment{
		Run:         rec.run.ID,
		Suite:       rec.run.Suite,
		Spec:        rec.run.Spec,
		Dispatch:    rec.dispatch,
		SeedAttempt: rec.seedAttempt,
		BaseSeed:    rec.run.Spec.BaseSeed(),
		LeaseMillis: c.cfg.LeaseDuration.Milliseconds(),
	}
	entry := Entry{
		Type: EntryDispatched, Time: now,
		Suite: rec.run.Suite, Run: rec.run.ID,
		Worker: workerID, Dispatch: rec.dispatch, SeedAttempt: rec.seedAttempt,
	}
	c.mu.Unlock()
	// Journal before the assignment leaves the coordinator: a crash
	// after the worker starts but before the dispatch is durable
	// would otherwise recover the run as never-dispatched *and* let a
	// late completion for it arrive — still deduplicated, but the
	// budget accounting would be blind to the lease.
	if err := c.cfg.Journal.Record(entry); err != nil {
		// Undo the grant; the run returns to the queue.
		c.mu.Lock()
		c.releaseLeaseLocked(rec)
		rec.run.State = StateQueued
		c.requeue = append(c.requeue, rec.run.ID)
		c.mu.Unlock()
		return nil, nil, err
	}
	return a, nil, nil
}

// watch ties lease a to the in-process attempt that stop cancels, so
// Cancel stops it at once rather than at its next heartbeat; a cancel
// already pending stops it now.
func (c *Coordinator) watch(a *Assignment, stop context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec := c.runs[a.Run]; rec != nil && rec.dispatch == a.Dispatch && rec.worker != "" && !rec.cancelReq {
		rec.stop = stop
		return
	}
	stop()
}

// waitLocked returns the wake channel, creating it for the first
// waiter.
func (c *Coordinator) waitLocked() <-chan struct{} {
	if c.wake == nil {
		c.wake = make(chan struct{})
	}
	return c.wake
}

// wakeLocked releases every parked Lease and Drain to look again.
func (c *Coordinator) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// nextEligibleLocked picks the next dispatchable run: failover
// re-queues (oldest first, gated by their backoff) before fresh
// admissions. Terminal entries — cancelled while queued, completed by
// a late report — are skipped and dropped.
func (c *Coordinator) nextEligibleLocked(now time.Time) *runRec {
	for i, id := range c.requeue {
		rec := c.runs[id]
		if rec == nil || rec.run.State.Terminal() || rec.worker != "" {
			c.requeue = append(c.requeue[:i], c.requeue[i+1:]...)
			return c.nextEligibleLocked(now)
		}
		if now.Before(rec.notBefore) {
			continue
		}
		c.requeue = append(c.requeue[:i], c.requeue[i+1:]...)
		return rec
	}
	for {
		id, ok := c.queue.Pop()
		if !ok {
			return nil
		}
		rec := c.runs[id]
		if rec == nil || rec.run.State.Terminal() || rec.worker != "" {
			continue
		}
		return rec
	}
}

// Heartbeat extends a live lease and tells the worker whether to keep
// going. Stale leases, terminal runs and unknown runs draw
// DirectiveAbort: the worker's work can no longer be accepted under
// that lease, so it should stop and discard.
func (c *Coordinator) Heartbeat(workerID, runID string, dispatch int) (Directive, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := c.runs[runID]
	if rec == nil {
		return DirectiveAbort, nil
	}
	if rec.run.State.Terminal() || rec.worker != workerID || rec.dispatch != dispatch {
		return DirectiveAbort, nil
	}
	if rec.cancelReq {
		return DirectiveAbort, nil
	}
	rec.leaseExpiry = time.Now().Add(c.cfg.LeaseDuration)
	return DirectiveContinue, nil
}

// Complete accepts a worker's terminal report. The first report for a
// run wins — later reports (a slow worker past its lease, a
// re-dispatched copy) are counted as duplicates and acknowledged
// without effect, which is what makes re-dispatch safe.
func (c *Coordinator) Complete(workerID, runID string, dispatch int, out Outcome) error {
	c.mu.Lock()
	rec := c.runs[runID]
	if rec == nil && !c.issuedLocked(runID) {
		c.mu.Unlock()
		return ErrUnknownRun
	}
	if rec == nil || rec.run.State.Terminal() {
		// Only terminal runs are evicted, so a report for one is late.
		c.stats.DuplicateCompletions++
		c.mu.Unlock()
		return nil
	}
	switch out.State {
	case StatePassed, StateFailed, StateCancelled:
	default:
		c.mu.Unlock()
		return fmt.Errorf("scenario: non-terminal outcome state %q for run %s", out.State, runID)
	}

	// A cancelled report from a stale lease is a worker obeying an
	// abort directive, not a verdict: a live re-dispatched copy (or a
	// future one) owns the run now. Ignore it unless the client really
	// asked for a cancel. Pass/fail reports stay welcome from stale
	// leases — determinism makes the result as good as the current
	// holder's.
	stale := rec.worker != workerID || rec.dispatch != dispatch
	if stale && out.State == StateCancelled && !rec.cancelReq {
		c.stats.DuplicateCompletions++
		c.mu.Unlock()
		return nil
	}

	// A reported infra fault is the one failure retried, at the next
	// seed attempt, up to the spec's max_attempts (else the default)
	// and the dispatch budget.
	maxAttempts := rec.run.Spec.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = c.cfg.MaxAttempts
	}
	if out.State == StateFailed && out.Error != nil && out.Error.Kind == ErrInfra &&
		rec.seedAttempt < maxAttempts && rec.dispatches < c.cfg.MaxDispatches && !rec.cancelReq {
		c.releaseLeaseLocked(rec)
		rec.seedAttempt++
		rec.run.State = StateQueued
		rec.notBefore = time.Now().Add(Backoff(c.cfg.BackoffBase, c.cfg.BackoffMax, rec.run.Spec.BaseSeed(), rec.seedAttempt))
		c.requeue = append(c.requeue, rec.run.ID)
		c.stats.InfraRetries++
		entry := Entry{
			Type: EntryRequeued, Time: time.Now(),
			Suite: rec.run.Suite, Run: rec.run.ID,
			Worker: workerID, Dispatch: dispatch, SeedAttempt: rec.seedAttempt,
			Reason: "infra-retry",
		}
		c.mu.Unlock()
		return c.cfg.Journal.Record(entry)
	}

	entry := c.finalizeLocked(rec, out, workerID)
	c.mu.Unlock()
	return c.cfg.Journal.Record(entry)
}

// finalizeLocked commits a terminal state and builds its journal
// entry. Caller holds the lock and must Record the returned entry
// after unlocking.
func (c *Coordinator) finalizeLocked(rec *runRec, out Outcome, workerID string) Entry {
	c.releaseLeaseLocked(rec)
	rec.run.State = out.State
	rec.run.Error = out.Error
	rec.run.Result = out.Result
	rec.run.FinishedAt = time.Now()
	c.stats.Completed++
	c.rememberLocked(rec.run.ID)
	c.wakeLocked()
	e := Entry{
		Type: EntryCompleted, Time: rec.run.FinishedAt,
		Suite: rec.run.Suite, Run: rec.run.ID,
		Worker: workerID, Dispatch: rec.dispatch,
		State: out.State, Error: out.Error,
	}
	if out.Result != nil {
		e.Fingerprint = out.Result.Fingerprint
	}
	return e
}

// releaseLeaseLocked clears the current lease and returns the slot to
// its holder, exactly once per grant.
func (c *Coordinator) releaseLeaseLocked(rec *runRec) {
	if rec.worker == "" {
		return
	}
	if w := c.workers[rec.worker]; w != nil && w.inFlight > 0 {
		w.inFlight--
	}
	rec.worker, rec.stop = "", nil
	c.wakeLocked()
}

// rememberLocked enters a newly terminal run into the history,
// evicting the oldest terminal run from memory once HistoryCap are
// kept.
func (c *Coordinator) rememberLocked(id string) {
	if c.history.Full() {
		old, _ := c.history.Pop()
		if rec := c.runs[old]; rec != nil {
			delete(c.runs, old)
			if s := c.suites[rec.run.Suite]; s != nil {
				if i := slices.Index(s.Runs, old); i >= 0 {
					s.Runs = slices.Delete(s.Runs, i, i+1)
				}
			}
		}
	}
	c.history.Push(id)
}

// Evicted reports whether id names a run this coordinator (or a
// generation whose journal it replayed) admitted and has since dropped
// from its bounded history; the run's outcome is in the journal.
func (c *Coordinator) Evicted(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[id] == nil && c.issuedLocked(id)
}

// issuedLocked reports whether id is a run ID this coordinator's
// counter has handed out.
func (c *Coordinator) issuedLocked(id string) bool {
	num, ok := strings.CutPrefix(id, "r-")
	if !ok {
		return false
	}
	n, err := strconv.Atoi(num)
	return err == nil && n >= 1 && n <= c.nextRun && strconv.Itoa(n) == num
}

// ExpireLeases reclaims every lease whose heartbeat stopped before
// now: cancelled runs finalize, exhausted budgets record a typed
// worker-lost failure, everything else re-queues under jittered
// exponential backoff. The sweeper calls it on a ticker; tests may
// call it directly.
func (c *Coordinator) ExpireLeases(now time.Time) {
	c.mu.Lock()
	var entries []Entry
	for _, rec := range c.runs {
		if rec.worker == "" || rec.run.State.Terminal() || now.Before(rec.leaseExpiry) {
			continue
		}
		c.stats.LeaseExpiries++
		switch {
		case rec.cancelReq:
			entries = append(entries, c.finalizeLocked(rec, Outcome{
				State: StateCancelled,
				Error: &RunError{
					Kind:    ErrCancelled,
					Message: "lease expired after cancel request",
					Attempt: rec.dispatches,
				},
			}, rec.worker))
		case rec.dispatches >= c.cfg.MaxDispatches:
			c.stats.WorkersLost++
			entries = append(entries, c.finalizeLocked(rec, Outcome{
				State: StateFailed,
				Error: &RunError{
					Kind: ErrWorkerLost,
					Message: fmt.Sprintf("dispatch budget exhausted: %d leases granted, every worker crashed, hung or partitioned away",
						rec.dispatches),
					Attempt: rec.dispatches,
				},
			}, rec.worker))
		default:
			worker := rec.worker
			c.releaseLeaseLocked(rec)
			rec.run.State = StateQueued
			rec.notBefore = now.Add(Backoff(c.cfg.BackoffBase, c.cfg.BackoffMax, rec.run.Spec.BaseSeed(), rec.dispatches))
			c.requeue = append(c.requeue, rec.run.ID)
			c.stats.Redispatches++
			entries = append(entries, Entry{
				Type: EntryRequeued, Time: now,
				Suite: rec.run.Suite, Run: rec.run.ID,
				Worker: worker, Dispatch: rec.dispatches, SeedAttempt: rec.seedAttempt,
				Reason: "lease-expired",
			})
		}
	}
	c.mu.Unlock()
	for _, e := range entries {
		c.cfg.Journal.Record(e) //nolint:errcheck // in-memory state already moved on; the journal is best-effort here
	}
}

// Drain stops admissions and new leases, releases parked leases, then
// waits for in-flight leases to report or expire. Queued and
// still-unreported runs stay in the journal as
// submitted-without-completion, so the next coordinator generation
// requeues them — drain returns unfinished work to the queue rather
// than losing or failing it.
func (c *Coordinator) Drain(ctx context.Context) error {
	err := c.drain(ctx, func() bool { return c.inFlightLocked() == 0 })
	c.Stop()
	return err
}

// drain stops admissions, wakes every parked call, and waits until
// idle, evaluated under the lock at each wake, holds or ctx ends. Each
// daemon states what drained means for it as idle.
func (c *Coordinator) drain(ctx context.Context, idle func() bool) error {
	c.mu.Lock()
	c.draining = true
	c.wakeLocked()
	for !idle() {
		wake := c.waitLocked()
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
		c.mu.Lock()
	}
	c.mu.Unlock()
	return nil
}

// inFlightLocked counts the runs a worker holds a lease on.
func (c *Coordinator) inFlightLocked() int {
	n := 0
	for _, rec := range c.runs {
		if rec.worker != "" && !rec.run.State.Terminal() {
			n++
		}
	}
	return n
}
