// Package fleet is the remote half of the scenario service: the
// /fleet/ worker routes that serve a scenario.Coordinator to hbpsimd
// worker processes, the HTTP client those workers use (RemoteCoord),
// and the worker itself. Admission, leases, requeue, dedup, the
// journal and its replay are scenario.Coordinator's. cmd/hbpsimd
// serves these routes with -workers 0, and otherwise runs the same
// coordinator with in-process executors.
//
// The contract is exactly-once with solo-identical results: every
// admitted run either completes exactly once, with a fingerprint
// bit-identical to scenario.RunCaseSolo of the same spec, or
// terminates in a recorded, typed failure. What the remote side adds:
//
//   - Leases + heartbeats. A worker heartbeats a few times per lease;
//     one that crashes, wedges or partitions away stops, the lease
//     expires, and the coordinator re-dispatches under jittered
//     exponential backoff up to a bounded dispatch budget; exhausting
//     the budget records a typed worker-lost failure.
//   - Seed discipline. Failover re-dispatches reuse the run's seed
//     attempt, so a run that fails over to another worker reproduces
//     the solo fingerprint bit-for-bit. Only a *reported*
//     infrastructure fault advances the seed attempt.
//   - Workers outlive coordinators. A worker whose ID a restarted
//     coordinator no longer knows registers again by itself.
//
// The chaos soak (under -race, with internal/faults.WorkerPlan
// injecting crash/hang/slow/partition faults) holds the exactly-once
// invariant as its acceptance criterion.
package fleet

import "repro/internal/scenario"

// The coordinator and its wire and journal types live in
// internal/scenario. These aliases keep the names cmd/hbpbench
// imports; they go with ROADMAP item 13, the next change to the
// benchmark harness.
type (
	// Coordinator goes with ROADMAP item 13.
	Coordinator = scenario.Coordinator
	// Config goes with ROADMAP item 13.
	Config = scenario.CoordinatorConfig
	// Journal goes with ROADMAP item 13.
	Journal = scenario.Journal
	// Entry goes with ROADMAP item 13.
	Entry = scenario.Entry
	// WorkerInfo goes with ROADMAP item 13.
	WorkerInfo = scenario.WorkerInfo
	// Assignment goes with ROADMAP item 13.
	Assignment = scenario.Assignment
	// Directive goes with ROADMAP item 13.
	Directive = scenario.Directive
	// Outcome goes with ROADMAP item 13.
	Outcome = scenario.Outcome
)

// EntryDispatched goes with ROADMAP item 13.
const EntryDispatched = scenario.EntryDispatched

// NewCoordinator goes with ROADMAP item 13.
func NewCoordinator(cfg Config, recovered []Entry) *Coordinator {
	return scenario.NewCoordinator(cfg, recovered)
}

// OpenJournal goes with ROADMAP item 13.
func OpenJournal(path string) (*Journal, []Entry, error) { return scenario.OpenJournal(path) }
