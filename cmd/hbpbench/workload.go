package main

import (
	"fmt"
	"time"
)

// repResult is what one timed repetition reports back to the harness.
// A repetition is one scenario run, or one drained segment of fleet
// cases; ops counts the operations it attempted and failed those that
// errored, leaked, captured nothing, did not pass or broke a
// fingerprint check.
type repResult struct {
	ops    int
	failed int
	// use is the host cost of the measured region alone (warm-up,
	// tracing extras and the forced collection after it excluded).
	use usage
	// why holds one line per failed operation (capped by the caller).
	why []string

	// Simulated statistics of a scenario run. They are functions of the
	// input alone, so they repeat exactly between repetitions.
	events       uint64
	queueDrops   int64
	attackers    int
	captured     int
	ctrlMsgs     int64
	peakState    int
	captureTimes []float64
	macroSent    int64
	macroSkipped int64
	// runWall is the scenario's own report of its event-loop wall time
	// (Result.Wall), zero where the scenario reports none.
	runWall time.Duration

	// Per-case observations of a fleet segment, from the service's own
	// timestamps (latency = FinishedAt − SubmittedAt, queueWait =
	// StartedAt − SubmittedAt, exec = FinishedAt − StartedAt) and from
	// the client's clock (roundTrip = submit call → terminal seen).
	latency   []time.Duration
	queueWait []time.Duration
	exec      []time.Duration
	roundTrip []time.Duration
	polls     int
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.why) < 8 {
		r.why = append(r.why, fmt.Sprintf(format, args...))
	}
}

// workload is one of the benchmark's five inputs. The harness calls
// setUp (several times, to time it), then rep until the clock runs
// out, then tearDown. Every rep of one process executes the identical
// generated input: the spread between reps is host noise only.
type workload interface {
	// setUp derives the input from the seed, builds the fixtures,
	// proves them with warm-up work and records the reference
	// fingerprints later reps are checked against. A second setUp
	// replaces the fixtures of the first.
	setUp(seed int64) error
	// rep executes one repetition; rec is nil when tracing is off.
	rep(rec *recorder, id string) repResult
	// finish audits the fixtures once the timed phases are over.
	finish() finishReport
	// tearDown releases the fixtures.
	tearDown() error
	// info describes the workload for the report.
	info() workloadInfo
}

// finishReport is the post-run audit: failures that are not tied to a
// single repetition, and the per-layer numbers only the fixture knows.
type finishReport struct {
	failed int
	why    []string
	layer  map[string]float64
	// execTime is how long the fleet worker spent executing cases
	// rather than talking to the coordinator (traced runs only).
	execTime time.Duration
}

func (r *finishReport) fail(format string, args ...any) {
	r.failed++
	r.why = append(r.why, fmt.Sprintf(format, args...))
}

type workloadInfo struct {
	// opUnit names one operation: "run" or "case".
	opUnit string
	// normalised is false for a timer-bound workload, whose durations
	// do not scale with host speed and are reported raw.
	normalised bool
	// parallel is the share of the reference reading taken from the
	// kernel run as two copies side by side, the rest from one copy
	// alone (see refk): 0 for a workload on one thread.
	parallel float64
	// setUpParallel is the same for a set-up pass, which need not use
	// the processors the way a repetition does (a sharded scenario's
	// reference run is at one shard).
	setUpParallel float64
	// minReps is the least number of repetitions a timed phase takes,
	// whatever the clock says.
	minReps int
	// maxReps, when non-zero, ends a timed phase early: a fixture that
	// grows with every case it has served must serve the same number in
	// every run, or its memory metrics would follow the host's speed.
	maxReps int
	// journalFS names the filesystem under the journal, for the
	// machine stamp.
	journalFS string
}

type workloadDef struct {
	name string
	make func() workload
}

// workloads lists the five inputs in report order. The names are part
// of BENCHMARK.json, which also records why each one exists, and must
// not change.
var workloads = []workloadDef{
	{"tree-defense", func() workload { return newTreeDefense() }},
	{"forest-sharded", func() workload { return newForestSharded() }},
	{"internet-scale", func() workload { return newInternetScale() }},
	{"fleet-saturated", func() workload { return newFleet(true) }},
	{"fleet-serial", func() workload { return newFleet(false) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
