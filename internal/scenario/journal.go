package scenario

import (
	"time"

	"repro/internal/jsonl"
)

// EntryType tags one journal record.
type EntryType string

const (
	// EntrySuite records a suite's creation.
	EntrySuite EntryType = "suite"
	// EntrySubmitted records a run's admission to the queue.
	EntrySubmitted EntryType = "submitted"
	// EntryDispatched records a lease grant: which worker holds which
	// run at which dispatch and seed attempt.
	EntryDispatched EntryType = "dispatched"
	// EntryRequeued records a run returning to the queue — lease
	// expiry or a reported infra fault — with the reason.
	EntryRequeued EntryType = "requeued"
	// EntryCancelRequested records a client cancel acknowledged for a
	// leased run. The acknowledgement is a promise that the run is
	// stopping, so it must survive a crash: replay keeps the request
	// pending and the run finalizes as cancelled instead of
	// re-executing.
	EntryCancelRequested EntryType = "cancel-requested"
	// EntryCompleted records the first accepted terminal report.
	EntryCompleted EntryType = "completed"

	// EntryStarted and EntryFinished are the records hbpsimd wrote
	// before both daemons shared this schema: one started record per
	// seed attempt (Attempt set), and the terminal state. Replay reads
	// them as EntryDispatched and EntryCompleted, so an older journal
	// keeps its history; nothing writes them any more.
	EntryStarted  EntryType = "started"
	EntryFinished EntryType = "finished"
)

// Entry is one append-only journal record (internal/jsonl: torn tails
// truncated on reopen) and one transition of the coordinator's state
// (Coordinator.applyLocked). The live path writes each record before
// it applies it, both under the coordinator lock, so journal order is
// apply order, and acknowledges only after the fsync that follows. A
// restart folds applyLocked over the journal: a run with a submitted
// entry but no completed entry comes back queued or held, and held
// runs are requeued with their budget intact.
type Entry struct {
	Type EntryType `json:"type"`
	Time time.Time `json:"time"`

	Suite string `json:"suite,omitempty"`
	// SuiteName is set on EntrySuite.
	SuiteName string `json:"suite_name,omitempty"`
	Run       string `json:"run,omitempty"`
	// Spec is set on EntrySubmitted so a recovered run is
	// re-dispatchable.
	Spec *CaseSpec `json:"spec,omitempty"`

	// Worker, Dispatch and SeedAttempt are set on EntryDispatched
	// (and Worker/Dispatch on EntryCompleted for attribution).
	Worker      string `json:"worker,omitempty"`
	Dispatch    int    `json:"dispatch,omitempty"`
	SeedAttempt int    `json:"seed_attempt,omitempty"`
	// Attempt is set on EntryStarted.
	Attempt int `json:"attempt,omitempty"`

	// Reason is set on EntryRequeued: "lease-expired" or
	// "infra-retry".
	Reason string `json:"reason,omitempty"`

	// State, Error and Fingerprint are set on EntryCompleted.
	State       State     `json:"state,omitempty"`
	Error       *RunError `json:"error,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`

	// result is the full result a live completion carries; the journal
	// keeps only its Fingerprint, from which replay rebuilds one.
	result *CaseResult
}

// The reasons an EntryRequeued record gives; each names the Stats
// counter it bumps and the attempt its backoff counts.
const (
	reasonLeaseExpired = "lease-expired"
	reasonInfraRetry   = "infra-retry"
)

// Journal is the run lifecycle's append-only JSONL ledger; a nil
// journal discards records.
type Journal = jsonl.Log[Entry]

// OpenJournal opens (creating if needed) the journal at path, reading
// back every intact record for recovery; damaged tails are truncated,
// not errors.
func OpenJournal(path string) (*Journal, []Entry, error) { return jsonl.Open[Entry](path) }
