// Package fleet is the worker loop of the scenario service: a Worker
// registers with a coordinator, leases its runs, executes each with
// the deterministic solo executor, heartbeats while it runs and
// reports the outcome. The coordinator is scenario.Coordinator, in
// process or, for hbpsimd -worker, over the wire through
// scenario.Client (the routes are scenario.MountWorkerRoutes).
// Admission, leases, requeue, dedup, the journal and its replay are
// the coordinator's.
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
// The chaos soak (under -race) holds the exactly-once invariant as its
// acceptance criterion. Its faults are test code: a Coord decorator
// plays crashes, hangs, slow reports, partitions and message loss from
// the coordinator's side of the wire.
package fleet

import (
	"net/http"

	"repro/internal/scenario"
)

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

// NewServer returns a fleet coordinator's routes: the suite/case API
// and the worker protocol. It goes with ROADMAP item 13.
func NewServer(c *Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	scenario.MountRoutes(mux, c)
	scenario.MountWorkerRoutes(mux, c)
	return mux
}

// RemoteCoord is a Coord over the wire. It goes with ROADMAP item 13.
type RemoteCoord struct{ *scenario.Client }

// NewRemoteCoord goes with ROADMAP item 13.
func NewRemoteCoord(base string) *RemoteCoord {
	return &RemoteCoord{scenario.NewClient(base)}
}
