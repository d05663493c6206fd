package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// Coord is the worker's view of a coordinator. The in-process
// scenario.Coordinator satisfies it directly; over the wire it is
// scenario.Client; in the chaos soak it is a fault-injecting decorator
// around the real thing.
type Coord interface {
	Register(info scenario.WorkerInfo) (string, error)
	Lease(workerID string) (*scenario.Assignment, error)
	Heartbeat(workerID, runID string, dispatch int) (scenario.Directive, error)
	Complete(workerID, runID string, dispatch int, out scenario.Outcome) error
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
// the outcome. A stopping worker (its context done) reports nothing:
// the coordinator's leases recover what it held.
type Worker struct {
	cfg   WorkerConfig
	coord Coord

	mu sync.Mutex
	id string // guarded by mu: slots replace it when the coordinator forgets the worker
}

// NewWorker wires a worker to its coordinator.
func NewWorker(cfg WorkerConfig, coord Coord) *Worker {
	return &Worker{cfg: cfg.withDefaults(), coord: coord}
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
	id, err := w.coord.Register(scenario.WorkerInfo{Name: w.cfg.Name, Capacity: w.cfg.Capacity})
	if err == nil {
		w.id = id
	}
	return err
}

// Run registers and serves until ctx is cancelled. Each capacity slot
// polls for leases independently.
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
		if ctx.Err() != nil {
			return
		}
		id := w.ID()
		a, err := w.coord.Lease(id)
		if err == nil && a != nil {
			w.execute(ctx, id, a)
			continue // immediately ask for more work
		}
		if errors.Is(err, scenario.ErrUnknownWorker) {
			// The coordinator restarted (its journal replay requeued
			// our generation's orphans) or evicted us: join again. A
			// failed attempt is retried by the next poll.
			w.register(id) //nolint:errcheck // the next poll retries
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// execute runs one assignment under its lease, which worker ID id
// holds: a heartbeat loop keeps the lease alive (and watches for
// DirectiveAbort), the deterministic executor does the work, and the
// outcome is reported once — all under id, even if the worker has
// re-registered since.
func (w *Worker) execute(ctx context.Context, id string, a *scenario.Assignment) {
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
			case <-t.C:
				d, err := w.coord.Heartbeat(id, a.Run, a.Dispatch)
				if err == nil && d == scenario.DirectiveAbort {
					aborted.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	// The runner's attempt envelope: a reported infra fault is the one
	// the same seed would hit solo, and the coordinator's
	// seed-advancing retry takes over from there. An abort directive
	// is a deliberate cancel: report it as such even though only the
	// attempt context died, so the coordinator can recognise it as
	// stale — not a spurious run failure.
	res, err := scenario.SupervisedAttempt(runCtx, &a.Spec, a.BaseSeed, a.SeedAttempt, w.cfg.WallDeadline, w.cfg.MaxEvents)
	cancel()
	hbWG.Wait()
	out := scenario.NewOutcome(res, err, a.SeedAttempt, ctx.Err() != nil || aborted.Load())
	if ctx.Err() != nil {
		return
	}
	w.coord.Complete(id, a.Run, a.Dispatch, out) //nolint:errcheck // a failed report is a lost message; the lease recovers it
}
