package scenario

import (
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// State is a run's position in the supervised lifecycle.
type State string

const (
	// StateQueued: admitted to the submission queue, not yet picked up
	// by a worker.
	StateQueued State = "queued"
	// StateRunning: executing (possibly on a retry attempt).
	StateRunning State = "running"
	// StatePassed: completed with a clean teardown; Result is set.
	StatePassed State = "passed"
	// StateFailed: exhausted its attempts or died to a non-retryable
	// error; Error is set.
	StateFailed State = "failed"
	// StateCancelled: stopped by an explicit cancel or daemon drain
	// before completing.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StatePassed, StateFailed, StateCancelled:
		return true
	}
	return false
}

// ErrorKind classifies how a run died; the supervisor retries only
// ErrInfra.
type ErrorKind string

const (
	// ErrPanic: the executor panicked; Stack holds the trace.
	ErrPanic ErrorKind = "panic"
	// ErrWallDeadline: the attempt overran its wall-clock deadline.
	ErrWallDeadline ErrorKind = "wall-deadline"
	// ErrEventLimit: the attempt overran its simulated-event deadline.
	ErrEventLimit ErrorKind = "event-limit"
	// ErrInfra: injected infrastructure mortality — the only
	// retryable kind.
	ErrInfra ErrorKind = "infra-fault"
	// ErrCancelled: the run's context was cancelled by the client or
	// the drain.
	ErrCancelled ErrorKind = "cancelled"
	// ErrLeak: the run completed but its teardown audit found
	// stranded resources.
	ErrLeak ErrorKind = "leak"
	// ErrRun: any other executor error (bad config reaching the
	// executor, simulation error).
	ErrRun ErrorKind = "error"
	// ErrWorkerLost: the coordinator exhausted its dispatch budget
	// for the run — every worker that leased it crashed, hung
	// or partitioned away before reporting a result.
	ErrWorkerLost ErrorKind = "worker-lost"
)

// RunError is the recorded cause of a failed or cancelled run.
type RunError struct {
	Kind    ErrorKind `json:"kind"`
	Message string    `json:"message"`
	// Stack is the recovered goroutine stack for Kind == ErrPanic.
	Stack string `json:"stack,omitempty"`
	// Attempt is the 1-based attempt that produced the final error.
	Attempt int `json:"attempt"`
}

func (e *RunError) Error() string { return string(e.Kind) + ": " + e.Message }

// Run is one supervised case execution. Fields are guarded by the
// coordinator's lock; handlers copy them out via Snapshot.
type Run struct {
	// ID is unique across the daemon's lifetime (journal recovery
	// included).
	ID string `json:"id"`
	// Suite is the owning suite's ID.
	Suite string `json:"suite"`
	// Spec is the submitted case.
	Spec CaseSpec `json:"spec"`
	// State is the current lifecycle position.
	State State `json:"state"`
	// Attempts counts dispatches (execution attempts) so far.
	Attempts int `json:"attempts"`
	// Error is set for failed/cancelled runs.
	Error *RunError `json:"error,omitempty"`
	// Result is set for passed runs.
	Result *CaseResult `json:"result,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

// CaseResult is the deterministic outcome of a passed case plus its
// fingerprint. The fingerprint covers only seed-deterministic fields —
// never timestamps or attempt counts — so a suite run under chaos
// yields byte-identical fingerprints to a quiet one.
type CaseResult struct {
	Kind string `json:"kind"`
	// Tree is set for tree cases.
	Tree *TreeCaseResult `json:"tree,omitempty"`
	// Figure is set for figure cases.
	Figure *FigureCaseResult `json:"figure,omitempty"`
	// Fingerprint is the sha256 of the canonical JSON of Tree or
	// Figure.
	Fingerprint string `json:"fingerprint"`
}

// TreeCaseResult is the deterministic summary of one tree run — the
// numbers cmd/hbpsim prints, minus anything wall-clock.
type TreeCaseResult struct {
	MeanBefore        float64                `json:"mean_before"`
	MeanDuringAttack  float64                `json:"mean_during_attack"`
	AttackersCaptured int                    `json:"attackers_captured"`
	CollateralBlocks  int                    `json:"collateral_blocks"`
	CaptureTimes      []float64              `json:"capture_times,omitempty"`
	CtrlMessages      int64                  `json:"ctrl_messages"`
	Ctrl              metrics.ControlStats   `json:"ctrl"`
	Sec               metrics.SecurityStats  `json:"sec"`
	OpenSessionsAtEnd int                    `json:"open_sessions_at_end"`
	QueueDrops        int64                  `json:"queue_drops"`
	EventsFired       uint64                 `json:"events_fired"`
	Leak              experiments.LeakReport `json:"leak"`
	// Throughput is the sampled legitimate-goodput series.
	Throughput *metrics.Series `json:"throughput,omitempty"`
}

// FigureCaseResult is a rendered figure table.
type FigureCaseResult struct {
	Fig string `json:"fig"`
	// Title is the table title; Rendered is the aligned-text table —
	// both are deterministic for a fixed scale.
	Title    string `json:"title"`
	Rendered string `json:"rendered"`
}

// Snapshot returns a copy safe to marshal outside the coordinator's
// lock.
func (r *Run) Snapshot() Run {
	cp := *r
	return cp
}
