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
	// EntryStarted records a worker picking the run up (one per
	// attempt).
	EntryStarted EntryType = "started"
	// EntryFinished records the terminal state.
	EntryFinished EntryType = "finished"
)

// Entry is one append-only journal record. The journal is the crash
// ledger, not the result store: it carries enough to reconstruct every
// run's lifecycle position after a daemon restart (a run with a
// started entry but no finished entry was lost mid-flight), plus the
// result fingerprint so recovered history stays comparable.
type Entry struct {
	Type  EntryType `json:"type"`
	Time  time.Time `json:"time"`
	Suite string    `json:"suite,omitempty"`
	// SuiteName is set on EntrySuite.
	SuiteName string `json:"suite_name,omitempty"`
	Run       string `json:"run,omitempty"`
	// Spec is set on EntrySubmitted so a recovered run is
	// resubmittable.
	Spec *CaseSpec `json:"spec,omitempty"`
	// Attempt is set on EntryStarted.
	Attempt int `json:"attempt,omitempty"`
	// State, Error and Fingerprint are set on EntryFinished.
	State       State     `json:"state,omitempty"`
	Error       *RunError `json:"error,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
}

// Journal is the run lifecycle's append-only JSONL ledger
// (internal/jsonl): every write is flushed and synced before Record
// returns, and after a crash the journal may miss at most the
// transition in flight, never hold a torn prefix of one. A nil
// journal discards records.
type Journal = jsonl.Log[Entry]

// OpenJournal opens (creating if needed) the journal at path, first
// reading back every intact record for recovery. A damaged or torn
// tail — the write the previous process died inside — is dropped, not
// an error.
func OpenJournal(path string) (*Journal, []Entry, error) { return jsonl.Open[Entry](path) }

// Recover reconstructs run records from journal entries: terminal runs
// come back as journaled, and any run submitted or started but never
// finished is marked StateInterrupted — the previous daemon died while
// holding it. The returned runs carry enough spec to resubmit.
func Recover(entries []Entry) (suites map[string]string, runs []*Run) {
	suites = map[string]string{}
	byID := map[string]*Run{}
	finished := map[string]bool{}
	for _, e := range entries {
		switch e.Type {
		case EntrySuite:
			suites[e.Suite] = e.SuiteName
		case EntrySubmitted:
			r := &Run{ID: e.Run, Suite: e.Suite, State: StateInterrupted, SubmittedAt: e.Time}
			if e.Spec != nil {
				r.Spec = *e.Spec
			}
			byID[e.Run] = r
			runs = append(runs, r)
		case EntryStarted:
			if r := byID[e.Run]; r != nil {
				r.Attempts = e.Attempt
				r.StartedAt = e.Time
			}
		case EntryFinished:
			if r := byID[e.Run]; r != nil && !finished[e.Run] {
				// First completion wins: a duplicate finished record
				// (a crash between journaling and acking can replay
				// one) must not rewrite an already-terminal run.
				finished[e.Run] = true
				r.State = e.State
				r.Error = e.Error
				r.FinishedAt = e.Time
				if e.Fingerprint != "" {
					r.Result = &CaseResult{Kind: r.Spec.EffectiveKind(), Fingerprint: e.Fingerprint}
				}
			}
		}
	}
	return suites, runs
}
