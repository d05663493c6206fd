// Package fleet is the multi-node dispatch layer of the scenario
// service: one coordinator farming suite runs out to a pool of hbpsimd
// workers under time-bounded leases, built to survive the same failure
// modes — worker crash, hang, partition — the defense it measures will
// face in an elastic honeypot fleet.
//
// The contract is exactly-once with solo-identical results: every
// admitted run either completes exactly once, with a fingerprint
// bit-identical to scenario.RunCaseSolo of the same spec, or
// terminates in a recorded, typed failure. Never silently lost, never
// double-counted. The mechanics behind the contract:
//
//   - Leases + heartbeats. A dispatch grants a time-bounded lease;
//     heartbeats extend it. A worker that crashes, wedges or
//     partitions away stops heartbeating, the lease expires, and the
//     coordinator re-dispatches under jittered exponential backoff up
//     to a bounded dispatch budget; exhausting the budget records a
//     typed worker-lost failure.
//   - Seed discipline. Failover re-dispatches reuse the run's base
//     seed (the PR 6 attempt-1 rule, fleet-wide): a run that fails
//     over to another worker reproduces the solo fingerprint
//     bit-for-bit. Only a *reported* infrastructure fault — the run
//     executed and said so — advances the seed attempt, exactly as
//     the local runner's retry path does.
//   - First completion wins. Results are deduplicated by run: a slow
//     worker whose lease expired may still deliver its result late,
//     and a re-dispatched copy may deliver again; the coordinator
//     accepts the first terminal report and counts every later one as
//     a duplicate, not a second completion. Determinism makes this
//     safe — both reports carry the same fingerprint.
//   - Crash-safe journal. Assignments and completions are journaled
//     in the internal/jsonl format before they are acknowledged; a
//     restarted coordinator replays the journal, restores terminal
//     runs, and requeues every orphaned in-flight run with its
//     dispatch budget intact.
//
// The package is a wall-clock supervisor around the deterministic
// simulator, like internal/scenario: leases, backoff and journal
// timestamps are real time by design, and the chaos soak (under
// -race, with internal/faults.WorkerPlan injecting crash/hang/slow/
// partition faults) holds the exactly-once invariant as its acceptance
// criterion.
package fleet

import (
	"errors"

	"repro/internal/scenario"
)

// The admission rejections are the scenario service's own sentinels,
// so both daemons' client routes map them to 503 (+ Retry-After) with
// one rule: a full submission queue, and submissions, registrations
// and leases refused during shutdown.
var (
	ErrQueueFull = scenario.ErrQueueFull
	ErrDraining  = scenario.ErrDraining
)

// ErrUnknownWorker tells a worker its registration is gone — the
// coordinator restarted or evicted it — and it must re-register.
var ErrUnknownWorker = errors.New("fleet: unknown worker")

// ErrUnknownRun rejects reports about runs the coordinator has never
// admitted.
var ErrUnknownRun = errors.New("fleet: unknown run")

// ErrFleetFull rejects registrations past the worker-registry cap.
var ErrFleetFull = errors.New("fleet: worker registry full")

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
	Spec scenario.CaseSpec `json:"spec"`
	// Dispatch is the 1-based dispatch (lease) number for this run;
	// heartbeats and completions must echo it so stale leases are
	// distinguishable from live ones.
	Dispatch int `json:"dispatch"`
	// SeedAttempt selects the scenario seed via scenario.AttemptSeed:
	// 1 — the common and every-failover case — runs the base seed
	// unchanged, so the result is bit-identical to a solo run.
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
	State scenario.State `json:"state"`
	// Error is set for failed/cancelled outcomes.
	Error *scenario.RunError `json:"error,omitempty"`
	// Result is set for passed outcomes.
	Result *scenario.CaseResult `json:"result,omitempty"`
}

// RunStatus is a run snapshot plus its fleet position.
type RunStatus struct {
	scenario.Run
	// Worker is the current lease holder ("" when not leased).
	Worker string `json:"worker,omitempty"`
	// Dispatches counts leases granted for this run so far.
	Dispatches int `json:"dispatches,omitempty"`
	// SeedAttempt is the seed attempt the next (or current) dispatch
	// runs at.
	SeedAttempt int `json:"seed_attempt,omitempty"`
}

// Stats are the coordinator's exactly-once accounting counters; the
// chaos soak asserts their invariants (Completed == terminal runs,
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

// Health is the coordinator's schedulability snapshot.
type Health struct {
	QueueDepth int  `json:"queue"`
	QueueCap   int  `json:"queue_cap"`
	InFlight   int  `json:"in_flight"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`
}

// Ready reports whether the coordinator can accept a submission.
func (h Health) Ready() bool {
	return !h.Draining && h.QueueDepth < h.QueueCap
}
