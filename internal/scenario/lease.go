package scenario

import "errors"

// ErrUnknownWorker tells a worker its registration is gone — the
// coordinator restarted or evicted it — and it must re-register.
var ErrUnknownWorker = errors.New("scenario: unknown worker")

// ErrUnknownRun rejects reports about runs the coordinator has never
// admitted.
var ErrUnknownRun = errors.New("scenario: unknown run")

// ErrFleetFull rejects registrations past the worker-registry cap.
var ErrFleetFull = errors.New("scenario: worker registry full")

// WorkerInfo is a worker's registration card.
type WorkerInfo struct {
	// Name identifies the worker in journals and logs; it need not be
	// unique (the coordinator assigns the unique ID).
	Name string `json:"name"`
	// Capacity is how many runs the worker executes concurrently
	// (default 1).
	Capacity int `json:"capacity,omitempty"`
}

// Assignment is one leased dispatch: the case to run, which seed
// attempt to run it at, and how long the lease lasts without a
// heartbeat.
type Assignment struct {
	// Run and Suite identify the dispatched run.
	Run   string `json:"run"`
	Suite string `json:"suite"`
	// Spec is the case to execute.
	Spec CaseSpec `json:"spec"`
	// Dispatch is the 1-based dispatch (lease) number for this run;
	// heartbeats and completions must echo it so stale leases are
	// distinguishable from live ones.
	Dispatch int `json:"dispatch"`
	// SeedAttempt selects the scenario seed via AttemptSeed: 1 — the
	// common and every-failover case — runs the base seed unchanged,
	// so the result is bit-identical to a solo run.
	SeedAttempt int `json:"seed_attempt"`
	// BaseSeed is the resolved base seed of the spec.
	BaseSeed int64 `json:"base_seed"`
	// LeaseMillis is the granted lease duration; the worker should
	// heartbeat a few times per lease.
	LeaseMillis int64 `json:"lease_millis"`
}

// Directive is the coordinator's heartbeat reply.
type Directive string

const (
	// DirectiveContinue: the lease is extended; keep going.
	DirectiveContinue Directive = "continue"
	// DirectiveAbort: the lease is stale, the run is terminal, or a
	// cancel was requested — stop executing and discard the attempt.
	DirectiveAbort Directive = "abort"
)

// Outcome is a worker's terminal report for one dispatch.
type Outcome struct {
	// State is passed, failed or cancelled.
	State State `json:"state"`
	// Error is set for failed/cancelled outcomes.
	Error *RunError `json:"error,omitempty"`
	// Result is set for passed outcomes.
	Result *CaseResult `json:"result,omitempty"`
}

// NewOutcome is the report for one attempt that returned res and err
// (see SupervisedAttempt): passed, or the classified failure, with a
// cancellation reported as cancelled. cancelled says whether the
// lease's own context was cancelled, as for ClassifyError.
func NewOutcome(res *CaseResult, err error, attempt int, cancelled bool) Outcome {
	if err == nil {
		return Outcome{State: StatePassed, Result: res}
	}
	re := ClassifyError(err, attempt, cancelled)
	if re.Kind == ErrCancelled {
		return Outcome{State: StateCancelled, Error: re}
	}
	return Outcome{State: StateFailed, Error: re}
}

// RunStatus is a run snapshot plus its dispatch position.
type RunStatus struct {
	Run
	// Worker is the current lease holder ("" when not leased).
	Worker string `json:"worker,omitempty"`
	// Dispatches counts leases granted for this run so far.
	Dispatches int `json:"dispatches,omitempty"`
	// SeedAttempt is the seed attempt the next (or current) dispatch
	// runs at.
	SeedAttempt int `json:"seed_attempt,omitempty"`
}

// Stats are the coordinator's exactly-once accounting counters; the
// chaos soaks assert their invariants (Completed == terminal runs,
// Lost == 0 by construction — a lost run would be a non-terminal run
// with no lease and no queue position).
type Stats struct {
	// Admitted counts runs accepted into the queue.
	Admitted int64 `json:"admitted"`
	// Completed counts first terminal reports accepted.
	Completed int64 `json:"completed"`
	// DuplicateCompletions counts late or re-dispatched reports
	// ignored because the run was already terminal.
	DuplicateCompletions int64 `json:"duplicate_completions"`
	// LeaseExpiries counts leases that timed out without a report.
	LeaseExpiries int64 `json:"lease_expiries"`
	// Redispatches counts re-queues after lease expiry.
	Redispatches int64 `json:"redispatches"`
	// InfraRetries counts re-queues after reported infra faults.
	InfraRetries int64 `json:"infra_retries"`
	// RejectedFull counts admissions bounced off the full queue.
	RejectedFull int64 `json:"rejected_full"`
	// WorkersLost counts runs that exhausted their dispatch budget.
	WorkersLost int64 `json:"workers_lost"`
}

// Health is the live/schedulable snapshot readyz serves: a daemon is
// alive whenever it answers, but only schedulable when it is not
// draining and has queue headroom.
type Health struct {
	QueueDepth int  `json:"queue"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`
}

// Ready reports whether the daemon can accept a submission right now.
func (h Health) Ready() bool {
	return !h.Draining && h.QueueDepth < h.QueueCap
}
