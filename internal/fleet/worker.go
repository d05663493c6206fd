package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// Coord is the worker's view of a coordinator. The in-process
// Coordinator satisfies it directly; over the wire it is the HTTP
// client; in the chaos soak it is a fault-injecting decorator around
// the real thing.
type Coord interface {
	Register(info WorkerInfo) (string, error)
	Lease(workerID string) (*Assignment, error)
	Heartbeat(workerID, runID string, dispatch int) (Directive, error)
	Complete(workerID, runID string, dispatch int, out Outcome) error
}

// WorkerConfig tunes a worker.
type WorkerConfig struct {
	// Name is the worker's registration name.
	Name string
	// Capacity is the concurrent-run slot count (default 1).
	Capacity int
	// PollInterval paces lease requests that come back empty or fail
	// (default 50 ms). The coordinator parks an empty request until
	// work arrives or its own 50 ms wait ends, so an idle worker asks
	// about once per interval and a busy one asks again at once.
	PollInterval time.Duration
	// MaxEvents caps simulated events per attempt (0: no cap).
	MaxEvents uint64
	// WallDeadline is the default per-attempt wall-clock deadline
	// (default 120 s), the same default the standalone daemon applies.
	WallDeadline time.Duration
	// Faults, when non-nil, injects crash/hang/slow faults into this
	// worker's executions — test-only chaos.
	Faults *faults.WorkerPlan
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Name == "" {
		c.Name = "worker"
	}
	if c.Capacity <= 0 {
		c.Capacity = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.WallDeadline <= 0 {
		c.WallDeadline = 120 * time.Second
	}
	return c
}

// Worker pulls assignments from a coordinator, executes them with the
// deterministic solo executor, heartbeats while running, and reports
// the outcome. Crashing is modelled as the context dying: everything
// the worker holds simply stops, and the coordinator's leases do the
// recovery.
type Worker struct {
	cfg   WorkerConfig
	coord Coord

	mu sync.Mutex
	id string // guarded by mu: slots replace it when the coordinator forgets the worker

	crashed chan struct{} // closed by an injected crash; stops the whole worker
	once    sync.Once
}

// NewWorker wires a worker to its coordinator.
func NewWorker(cfg WorkerConfig, coord Coord) *Worker {
	return &Worker{cfg: cfg.withDefaults(), coord: coord, crashed: make(chan struct{})}
}

// ID returns the current coordinator-assigned worker ID ("" before Run
// registers).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// register obtains a worker ID. stale is the ID the caller found
// rejected ("" for the first registration): every slot of a worker
// trips over the same dead ID after a coordinator restart, and only the
// first to arrive registers — mu is held across the call so the others
// wait for its answer instead of registering a second time.
func (w *Worker) register(stale string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.id != stale {
		return nil
	}
	id, err := w.coord.Register(WorkerInfo{Name: w.cfg.Name, Capacity: w.cfg.Capacity})
	if err == nil {
		w.id = id
	}
	return err
}

// crash simulates the process dying: every loop in this worker stops
// at its next check, nothing further is sent.
func (w *Worker) crash() {
	w.once.Do(func() { close(w.crashed) })
}

func (w *Worker) dead(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	case <-w.crashed:
		return true
	default:
		return false
	}
}

// Run registers and serves until ctx is cancelled or an injected
// crash kills the worker. Each capacity slot polls for leases
// independently.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(""); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slot(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// slot is one capacity slot's pull loop.
func (w *Worker) slot(ctx context.Context) {
	t := time.NewTicker(w.cfg.PollInterval)
	defer t.Stop()
	for {
		if w.dead(ctx) {
			return
		}
		id := w.ID()
		a, err := w.coord.Lease(id)
		if err == nil && a != nil {
			w.execute(ctx, id, a)
			continue // immediately ask for more work
		}
		if errors.Is(err, ErrUnknownWorker) {
			// The coordinator restarted (its journal replay requeued
			// our generation's orphans) or evicted us: join again. A
			// failed attempt is retried by the next poll.
			w.register(id) //nolint:errcheck // the next poll retries
		}
		select {
		case <-ctx.Done():
			return
		case <-w.crashed:
			return
		case <-t.C:
		}
	}
}

// execute runs one assignment under its lease, which worker ID id
// holds: a heartbeat loop keeps the lease alive (and watches for
// DirectiveAbort), the deterministic executor does the work, and the
// outcome is reported once — all under id, even if the worker has
// re-registered since. Injected faults divert the flow: crash kills
// the worker before execution, hang holds the lease forever without
// heartbeats, slow withholds the completion past the lease.
func (w *Worker) execute(ctx context.Context, id string, a *Assignment) {
	fault := w.cfg.Faults.Draw(w.cfg.Name, a.Run, a.Dispatch)
	switch fault.Kind {
	case faults.WorkerCrash:
		w.crash()
		return
	case faults.WorkerHang:
		// Wedged: never heartbeats, never reports, holds the slot
		// until the worker dies. The coordinator's lease expiry is the
		// only way this run comes back.
		select {
		case <-ctx.Done():
		case <-w.crashed:
		}
		return
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat a few times per lease; abort directives cancel the
	// attempt.
	hbEvery := time.Duration(a.LeaseMillis) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	var aborted atomic.Bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-w.crashed:
				cancel()
				return
			case <-t.C:
				d, err := w.coord.Heartbeat(id, a.Run, a.Dispatch)
				if err == nil && d == DirectiveAbort {
					aborted.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	// The local runner's attempt envelope: a reported infra fault is
	// the one the same seed would hit solo, and the coordinator's
	// seed-advancing retry takes over from there.
	res, err := scenario.SupervisedAttempt(runCtx, &a.Spec, a.BaseSeed, a.SeedAttempt, w.cfg.WallDeadline, w.cfg.MaxEvents)
	cancel()
	hbWG.Wait()

	var out Outcome
	if err != nil {
		// An abort directive is a deliberate cancel: classify it as
		// such even though only the attempt context died, so the
		// report is a cancellation the coordinator can recognise as
		// stale — not a spurious run failure.
		re := scenario.ClassifyError(err, a.SeedAttempt, ctx.Err() != nil || aborted.Load())
		out = Outcome{State: scenario.StateFailed, Error: re}
		if re.Kind == scenario.ErrCancelled {
			out.State = scenario.StateCancelled
		}
	} else {
		out = Outcome{State: scenario.StatePassed, Result: res}
	}

	if fault.Kind == faults.WorkerSlow {
		// The work is done but the report dawdles — typically past the
		// lease, so a re-dispatched copy races it and one of the two
		// becomes a counted duplicate.
		select {
		case <-time.After(fault.SlowBy):
		case <-w.crashed:
			return
		}
	}
	if w.dead(ctx) {
		return
	}
	w.coord.Complete(id, a.Run, a.Dispatch, out) //nolint:errcheck // a failed report is a lost message; the lease recovers it
}

// FaultyCoord decorates a Coord with deterministic message loss from a
// faults.WorkerPlan: each call counts against the worker's message
// sequence, and dropped messages behave like a network that ate the
// request (the callee never sees it). Replies cannot be lost
// separately — dropping the request drops the exchange, which is the
// conservative model for lease traffic.
type FaultyCoord struct {
	Inner Coord
	// Worker is the plan identity the drops key on (the worker's
	// *name*, not its coordinator-assigned ID, so plans can be written
	// before registration).
	Worker string
	Plan   *faults.WorkerPlan

	mu  sync.Mutex
	seq uint64
}

func (f *FaultyCoord) drop() bool {
	f.mu.Lock()
	seq := f.seq
	f.seq++
	f.mu.Unlock()
	return f.Plan.DropMessage(f.Worker, seq)
}

// Register never drops: a worker that cannot register retries at
// process level, which is outside the soak's scope.
func (f *FaultyCoord) Register(info WorkerInfo) (string, error) {
	return f.Inner.Register(info)
}

func (f *FaultyCoord) Lease(workerID string) (*Assignment, error) {
	if f.drop() {
		return nil, nil // lost poll: indistinguishable from "no work"
	}
	return f.Inner.Lease(workerID)
}

func (f *FaultyCoord) Heartbeat(workerID, runID string, dispatch int) (Directive, error) {
	if f.drop() {
		return DirectiveContinue, nil // lost heartbeat: lease keeps aging
	}
	return f.Inner.Heartbeat(workerID, runID, dispatch)
}

func (f *FaultyCoord) Complete(workerID, runID string, dispatch int, out Outcome) error {
	if f.drop() {
		return nil // lost completion: only lease expiry recovers the run
	}
	return f.Inner.Complete(workerID, runID, dispatch, out)
}
