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

// Entry is one append-only journal record (internal/jsonl: flushed
// and fsynced before acknowledgement, torn tails truncated on
// reopen). The journal reconstructs every run's dispatch position
// after a restart: a run with a submitted entry but no completed entry
// was queued or in flight when the daemon died and is requeued with
// its budget intact.
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
}

// Journal is the run lifecycle's append-only JSONL ledger; a nil
// journal discards records.
type Journal = jsonl.Log[Entry]

// OpenJournal opens (creating if needed) the journal at path, reading
// back every intact record for recovery; damaged tails are truncated,
// not errors.
func OpenJournal(path string) (*Journal, []Entry, error) { return jsonl.Open[Entry](path) }

// replay reconstructs suites and runs from journal entries. Terminal
// runs come back as completed (first completion wins — duplicate
// completed records, which a crash between journaling and
// acknowledging can replay, never rewrite a terminal run); every
// other submitted run comes back queued, keeping the dispatch count
// and seed attempt it had reached so restart cannot reset a run's
// budget. runs is in submission order; finished lists the terminal
// ones in the order they finished.
func replay(entries []Entry) (suites map[string]string, runs, finished []*runRec) {
	suites = map[string]string{}
	byID := map[string]*runRec{}
	for _, e := range entries {
		switch e.Type {
		case EntrySuite:
			suites[e.Suite] = e.SuiteName
			continue
		case EntrySubmitted:
			rec := &runRec{run: &Run{ID: e.Run, Suite: e.Suite, State: StateQueued, SubmittedAt: e.Time}}
			if e.Spec != nil {
				rec.run.Spec = *e.Spec
			}
			byID[e.Run] = rec
			runs = append(runs, rec)
			continue
		}
		rec := byID[e.Run]
		if rec == nil || rec.run.State.Terminal() {
			continue
		}
		switch e.Type {
		case EntryStarted:
			e.Dispatch, e.SeedAttempt = e.Attempt, e.Attempt
			fallthrough
		case EntryDispatched:
			rec.dispatches, rec.seedAttempt = e.Dispatch, e.SeedAttempt
			rec.run.Attempts, rec.run.StartedAt = e.Dispatch, e.Time
		case EntryRequeued:
			if e.SeedAttempt > 0 {
				rec.seedAttempt = e.SeedAttempt
			}
		case EntryCancelRequested:
			rec.cancelReq = true
		case EntryCompleted, EntryFinished:
			rec.run.State, rec.run.Error, rec.run.FinishedAt = e.State, e.Error, e.Time
			if e.Fingerprint != "" {
				rec.run.Result = &CaseResult{Kind: rec.run.Spec.EffectiveKind(), Fingerprint: e.Fingerprint}
			}
			finished = append(finished, rec)
		}
	}
	return suites, runs, finished
}
