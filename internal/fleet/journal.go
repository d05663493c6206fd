package fleet

import (
	"time"

	"repro/internal/jsonl"
	"repro/internal/scenario"
)

// EntryType tags one fleet journal record.
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
	// stopping, so it must survive a coordinator crash: replay keeps
	// the request pending and the run finalizes as cancelled instead of
	// re-executing.
	EntryCancelRequested EntryType = "cancel-requested"
	// EntryCompleted records the first accepted terminal report.
	EntryCompleted EntryType = "completed"
)

// Entry is one append-only fleet journal record, written in the same
// crash-safe JSONL format as the scenario service's run journal
// (internal/jsonl: flushed and fsynced before acknowledgement, torn
// tails truncated on reopen). The journal reconstructs every run's
// dispatch position after a coordinator restart: a run with a
// dispatched entry but no completed entry was in flight when the
// coordinator died and is requeued with its budget intact.
type Entry struct {
	Type EntryType `json:"type"`
	Time time.Time `json:"time"`

	Suite string `json:"suite,omitempty"`
	// SuiteName is set on EntrySuite.
	SuiteName string `json:"suite_name,omitempty"`
	Run       string `json:"run,omitempty"`
	// Spec is set on EntrySubmitted so a recovered run is
	// re-dispatchable.
	Spec *scenario.CaseSpec `json:"spec,omitempty"`

	// Worker, Dispatch and SeedAttempt are set on EntryDispatched
	// (and Worker/Dispatch on EntryCompleted for attribution).
	Worker      string `json:"worker,omitempty"`
	Dispatch    int    `json:"dispatch,omitempty"`
	SeedAttempt int    `json:"seed_attempt,omitempty"`

	// Reason is set on EntryRequeued: "lease-expired" or
	// "infra-retry".
	Reason string `json:"reason,omitempty"`

	// State, Error and Fingerprint are set on EntryCompleted.
	State       scenario.State     `json:"state,omitempty"`
	Error       *scenario.RunError `json:"error,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
}

// Journal is the coordinator's append-only JSONL ledger; a nil journal
// discards records.
type Journal = jsonl.Log[Entry]

// OpenJournal opens (creating if needed) the journal at path, reading
// back every intact record for recovery; damaged tails are truncated,
// not errors.
func OpenJournal(path string) (*Journal, []Entry, error) { return jsonl.Open[Entry](path) }

// recovered is one run's reconstructed state after a journal replay.
type recovered struct {
	run         *scenario.Run
	dispatches  int
	seedAttempt int
	cancelReq   bool
	evicted     bool // terminal and older than the history bound
}

// recover reconstructs suites and runs from journal entries. Terminal
// runs come back as completed (first completion wins — duplicate
// completed records, which a crash between journaling and
// acknowledging can replay, never rewrite a terminal run); every
// other submitted run comes back queued, keeping the dispatch count
// and seed attempt it had reached so restart cannot reset a run's
// budget. runs is in submission order; finished lists the terminal
// ones in the order they finished.
func recoverEntries(entries []Entry) (suiteNames map[string]string, runs, finished []*recovered) {
	suiteNames = map[string]string{}
	byID := map[string]*recovered{}
	for _, e := range entries {
		switch e.Type {
		case EntrySuite:
			suiteNames[e.Suite] = e.SuiteName
		case EntrySubmitted:
			rec := &recovered{
				run:         &scenario.Run{ID: e.Run, Suite: e.Suite, State: scenario.StateQueued, SubmittedAt: e.Time},
				seedAttempt: 1,
			}
			if e.Spec != nil {
				rec.run.Spec = *e.Spec
			}
			byID[e.Run] = rec
			runs = append(runs, rec)
		case EntryDispatched:
			if rec := byID[e.Run]; rec != nil && !rec.run.State.Terminal() {
				rec.dispatches = e.Dispatch
				rec.seedAttempt = e.SeedAttempt
				rec.run.Attempts = e.Dispatch
				rec.run.StartedAt = e.Time
			}
		case EntryRequeued:
			if rec := byID[e.Run]; rec != nil && !rec.run.State.Terminal() && e.SeedAttempt > 0 {
				rec.seedAttempt = e.SeedAttempt
			}
		case EntryCancelRequested:
			if rec := byID[e.Run]; rec != nil && !rec.run.State.Terminal() {
				rec.cancelReq = true
			}
		case EntryCompleted:
			if rec := byID[e.Run]; rec != nil && !rec.run.State.Terminal() {
				rec.run.State = e.State
				rec.run.Error = e.Error
				rec.run.FinishedAt = e.Time
				if e.Fingerprint != "" {
					rec.run.Result = &scenario.CaseResult{
						Kind:        rec.run.Spec.EffectiveKind(),
						Fingerprint: e.Fingerprint,
					}
				}
				finished = append(finished, rec)
			}
		}
	}
	return suiteNames, runs, finished
}
