package fleet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/scenario"
)

// workerFaultKind enumerates the ways a fleet worker can betray its
// coordinator. These are the failure modes the dispatch layer exists
// to survive — HoneyMesh-style elastic defense fleets lose hosts
// exactly like this — and the chaos soak injects all of them at once
// against the exactly-once invariant. chaosCoord plays them.
type workerFaultKind int

const (
	// workerHealthy: the attempt runs and reports normally.
	workerHealthy workerFaultKind = iota
	// workerCrash: the worker dies before executing — no completion,
	// no further heartbeats; only lease expiry gets the run back.
	workerCrash
	// workerHang: the worker wedges mid-run — it holds the lease and
	// the run, heartbeats stop, nothing is ever reported.
	workerHang
	// workerSlow: the worker finishes the run but reports the
	// completion late, typically after its lease has already expired
	// and the run was re-dispatched — the duplicate-completion path.
	workerSlow
)

// workerFault is one drawn fault decision for a (worker, run, attempt)
// triple.
type workerFault struct {
	Kind workerFaultKind
	// SlowBy is how long a workerSlow completion is withheld.
	SlowBy time.Duration
}

// partitionWindow drops every coordinator↔worker message for one
// worker over a half-open window of that worker's message sequence
// numbers. Indexing by message count instead of wall time keeps the
// plan a pure function of the seed — the same plan partitions the
// same messages on every test machine and under -race slowdowns.
type partitionWindow struct {
	// Worker names the partitioned worker.
	Worker string
	// From and To bound the dropped messages: seq in [From, To).
	From, To uint64
}

// workerPlan is the deterministic chaos schedule for a worker fleet.
// Every decision is a pure function of (Seed, worker, run, attempt) or
// (Seed, worker, message seq): replaying a plan replays its faults
// bit-for-bit, which is what lets the chaos soak assert exact
// invariants instead of statistical ones.
type workerPlan struct {
	// Seed decorrelates this plan from the scenarios it torments.
	Seed int64
	// CrashProb, HangProb and SlowProb are per-(run,attempt) fault
	// probabilities; their sum must stay below 1 and the remainder is
	// the healthy path.
	CrashProb float64
	HangProb  float64
	SlowProb  float64
	// SlowBy is the completion delay for drawn workerSlow faults
	// (default 200 ms — comfortably past the chaos soak's leases).
	SlowBy time.Duration
	// Partitions are scheduled message-drop windows per worker.
	Partitions []partitionWindow
	// DropProb additionally drops each coordinator↔worker message
	// independently — background packet loss on the control path.
	DropProb float64
}

// Draw decides the fault for one execution attempt. The draw mixes the
// worker name, run ID and attempt number into the plan seed, so the
// same attempt draws the same fate across process restarts while
// different attempts (including re-dispatches of the same run) draw
// independently.
func (p *workerPlan) Draw(worker, run string, attempt int) workerFault {
	if p == nil || p.CrashProb+p.HangProb+p.SlowProb <= 0 {
		return workerFault{Kind: workerHealthy}
	}
	rng := des.NewRNG(p.derive(worker, des.DeriveSeed(hashLabel(run), int64(attempt))))
	u := rng.Float64()
	f := workerFault{Kind: workerHealthy}
	switch {
	case u < p.CrashProb:
		f.Kind = workerCrash
	case u < p.CrashProb+p.HangProb:
		f.Kind = workerHang
	case u < p.CrashProb+p.HangProb+p.SlowProb:
		f.Kind = workerSlow
		f.SlowBy = p.SlowBy
		if f.SlowBy <= 0 {
			f.SlowBy = 200 * time.Millisecond
		}
	}
	return f
}

// DropMessage decides whether one coordinator↔worker message is lost:
// inside any scheduled partition window for the worker, or to the
// independent background drop probability. seq is the worker's own
// monotonic message counter (registrations, leases, heartbeats and
// completions all count).
func (p *workerPlan) DropMessage(worker string, seq uint64) bool {
	if p == nil {
		return false
	}
	for _, w := range p.Partitions {
		if w.Worker == worker && seq >= w.From && seq < w.To {
			return true
		}
	}
	if p.DropProb > 0 {
		rng := des.NewRNG(p.derive(worker, int64(seq)^0x7ed558cc))
		return rng.Float64() < p.DropProb
	}
	return false
}

// derive folds a worker label and a discriminator into the plan seed.
func (p *workerPlan) derive(worker string, label int64) int64 {
	return des.DeriveSeed(des.DeriveSeed(p.Seed, hashLabel(worker)), label)
}

// hashLabel maps a string identity to a seed label (FNV-1a).
func hashLabel(s string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// chaosCoord plays a workerPlan against one worker from the
// coordinator's side of the wire. Every Lease, Heartbeat and Complete
// counts against the worker's message sequence, and a dropped message
// behaves like a network that ate the request: the coordinator never
// sees it. Replies cannot be lost separately — dropping the request
// drops the exchange, the conservative model for lease traffic. A
// granted lease draws the attempt's fault:
//
//   - crash: the assignment is withheld, and from then on the
//     decorator answers every call itself — no lease, abort for the
//     heartbeats of attempts still running, reports dropped — so
//     nothing reaches the coordinator again;
//   - hang: the Lease call blocks until the test ends, holding its slot
//     with no heartbeat and no report;
//   - slow: the attempt's Complete waits SlowBy before it is sent.
//
// Calls reach the coordinator one at a time, so a crash drawn on one
// slot's lease stops every call after it, whichever slot makes it.
type chaosCoord struct {
	inner Coord
	// worker is the plan identity the draws key on (the worker's
	// name, not its coordinator-assigned ID, so plans can be written
	// before registration).
	worker  string
	plan    *workerPlan
	release chan struct{} // closed at test end: hung leases and slow reports give up

	gate    sync.Mutex // held across each call that reaches inner
	seq     uint64     // guarded by gate
	crashed bool       // guarded by gate
}

// startChaosWorker runs a worker named cfg.Name behind a chaosCoord
// that plays plan against inner.
func startChaosWorker(t *testing.T, inner Coord, cfg WorkerConfig, plan *workerPlan) {
	t.Helper()
	f := &chaosCoord{inner: inner, worker: cfg.Name, plan: plan, release: make(chan struct{})}
	startWorker(t, f, cfg)
	// Cleanups run last in, first out: this one frees hung leases
	// before startWorker's waits for the worker to stop.
	t.Cleanup(func() { close(f.release) })
}

// pass reports whether a call may reach inner: the worker is alive and
// the plan does not drop this message. The caller holds gate.
func (f *chaosCoord) pass() bool {
	if f.crashed {
		return false
	}
	seq := f.seq
	f.seq++
	return !f.plan.DropMessage(f.worker, seq)
}

// Register never drops: a worker that cannot register retries at
// process level, which is outside the soak's scope. A crashed worker
// never registers again: it only does so when a lease fails.
func (f *chaosCoord) Register(info scenario.WorkerInfo) (string, error) {
	return f.inner.Register(info)
}

func (f *chaosCoord) Lease(workerID string) (*scenario.Assignment, error) {
	f.gate.Lock()
	if !f.pass() {
		f.gate.Unlock()
		return nil, nil // lost poll: indistinguishable from "no work"
	}
	a, err := f.inner.Lease(workerID)
	var fault workerFault
	if a != nil {
		fault = f.plan.Draw(f.worker, a.Run, a.Dispatch)
	}
	if fault.Kind == workerCrash {
		f.crashed = true
	}
	f.gate.Unlock()
	switch fault.Kind {
	case workerCrash:
		return nil, nil
	case workerHang:
		// The coordinator's lease expiry is the only way this run
		// comes back.
		<-f.release
		return nil, nil
	}
	return a, err
}

func (f *chaosCoord) Heartbeat(workerID, runID string, dispatch int) (scenario.Directive, error) {
	f.gate.Lock()
	defer f.gate.Unlock()
	if f.crashed {
		return scenario.DirectiveAbort, nil // dead: attempts still running stop
	}
	if !f.pass() {
		return scenario.DirectiveContinue, nil // lost heartbeat: lease keeps aging
	}
	return f.inner.Heartbeat(workerID, runID, dispatch)
}

func (f *chaosCoord) Complete(workerID, runID string, dispatch int, out scenario.Outcome) error {
	if fault := f.plan.Draw(f.worker, runID, dispatch); fault.Kind == workerSlow {
		// The work is done but the report dawdles — typically past the
		// lease, so a re-dispatched copy races it and one of the two
		// becomes a counted duplicate.
		select {
		case <-time.After(fault.SlowBy):
		case <-f.release:
			return nil
		}
	}
	f.gate.Lock()
	defer f.gate.Unlock()
	if !f.pass() {
		return nil // lost completion: only lease expiry recovers the run
	}
	return f.inner.Complete(workerID, runID, dispatch, out)
}
