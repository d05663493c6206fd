package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/experiments"
)

// traceReps is how many repetitions each of the two phases of a traced
// run (untraced, then traced) takes: the traced run's time goes to the
// comparison runs and the micro rows as well, and its figures carry no
// bound.
const traceReps = 3

func traceRepsDone(done int, _ time.Duration) bool { return done < traceReps }

// tracedRun produces the per-layer metrics: an untraced phase, the
// same phase again under the span recorder (the difference is the
// tracing overhead), the workload's own comparison runs, and the micro
// rows that belong to it. Every figure comes from outside the layers,
// by timing calls to their public functions. It writes trace.json.
func tracedRun(name string, w workload, seed int64, stamp *machineStamp) (result, error) {
	info := w.info()
	layer := map[string]float64{}

	plain := repeat(w, nil, "plain", traceRepsDone)
	plainFin := w.finish()
	// The end-to-end metrics only some workloads define ride in the
	// per-layer list; like every end-to-end figure they come from the
	// untraced repetitions.
	_, scoped := gated()
	untraced := endToEndMetrics(name, info, plain)
	for _, d := range scoped {
		if v, ok := untraced[d.name]; ok {
			layer[d.name] = v.value
		}
	}

	rec := newRecorder()
	if fw, ok := w.(*fleetWorkload); ok {
		// The fleet's tracing decorators are fixtures: set up again with
		// them in place.
		fw.traced = true
		if err := fw.setUp(seed); err != nil {
			return result{}, fmt.Errorf("traced set-up: %w", err)
		}
	}
	traced := repeat(w, rec, "traced", traceRepsDone)
	fin := w.finish()
	spans := rec.snapshot()

	attempted, failed := tally(phase{reps: append(plain.reps, traced.reps...)}, finishReport{
		failed: plainFin.failed + fin.failed, why: append(plainFin.why, fin.why...),
	})
	for k, v := range fin.layer {
		layer[k] = v
	}

	// Tracing overhead: the traced phase's cost per operation against
	// the untraced phase's.
	cost := func(ph phase) float64 {
		var per []float64
		for i, r := range ph.reps {
			per = append(per, normalise(r.use.wall, ph.refFor(i, info.normalised))/float64(r.ops))
		}
		return median(per)
	}
	if base := cost(plain); base > 0 {
		layer["trace.overhead_frac"] = cost(traced)/base - 1
	}

	refs := append(append([]time.Duration(nil), plain.refs...), traced.refs...)
	switch tw := w.(type) {
	case *scenarioWorkload:
		scenarioLayers(layer, tw, traced, spans)
		extra, err := tw.compare(layer)
		if err != nil {
			return result{}, err
		}
		refs = append(refs, extra...)
	case *fleetWorkload:
		fleetLayers(layer, traced, fin)
	}

	microRefs, err := microRows(name, layer)
	if err != nil {
		return result{}, err
	}
	refs = append(refs, microRefs...)
	stamp.RefP50Ms, stamp.RefIQRFrac = median(durationsMs(refs)), iqrFrac(durationsMs(refs))
	layer["host.ref_p50_ms"], layer["host.ref_iqr_frac"] = stamp.RefP50Ms, stamp.RefIQRFrac

	if err := writeTrace("trace.json", name, spans); err != nil {
		return result{}, fmt.Errorf("write trace.json: %w", err)
	}
	fmt.Printf("   %d untraced + %d traced repetitions, %d spans written to trace.json\n", len(plain.reps), len(traced.reps), len(spans))
	self := selfByName(spans)
	for _, name := range sortedKeys(self) {
		fmt.Printf("   span %-34s n=%-6d self %10.3f ms\n", name, len(spanDurations(spans, name)), ms(self[name]))
	}

	// The result line carries every per-layer metric, 0 for a row this
	// workload does not exercise; the report prints the ones it does.
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range append(scoped, perLayer...) {
		v, exercised := layer[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if exercised {
			fmt.Printf("   %-38s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	fmt.Printf("   attempted=%d failed=%d\n", attempted, failed)
	return res, nil
}

// scenarioLayers fills the rows a scenario workload's traced phase
// yields: simulated counts (identical in every repetition) and the
// build / run / teardown split of one run.
func scenarioLayers(layer map[string]float64, w *scenarioWorkload, ph phase, spans []span) {
	last := ph.reps[len(ph.reps)-1]
	layer["des.events_per_run"] = float64(last.events)
	layer["netsim.queue_drops_per_run"] = float64(last.queueDrops)
	if last.captured > 0 {
		layer["core.ctrl_msgs_per_capture"] = float64(last.ctrlMsgs) / float64(last.captured)
	}
	layer["core.peak_state"] = float64(last.peakState)
	if len(last.captureTimes) > 0 {
		layer["core.capture_p50_s"] = median(last.captureTimes)
	}
	if emitted := last.macroSent + last.macroSkipped; emitted > 0 {
		layer["traffic.macro_expand_ratio"] = float64(last.macroSent) / float64(emitted)
	}

	// Phase split, each phase normalised by the reference kernel runs
	// around its repetition. Spans appear in repetition order.
	phaseNms := func(name string) float64 {
		ds := spanDurations(spans, w.prefix+"."+name)
		var out []float64
		for i, d := range ds {
			if i < len(ph.reps) {
				out = append(out, normalise(d, ph.refFor(i, true)))
			}
		}
		return median(out)
	}
	build, call, teardown := phaseNms("build"), phaseNms("scenario"), phaseNms("teardown")
	run := phaseNms("run")
	if w.build != nil {
		// The scenario reports no phases of its own: the build was timed
		// beside it, and the rest of the call is the run.
		run = call - build
	}
	layer["experiments."+w.prefix+"_build_nms"] = build
	layer["experiments."+w.prefix+"_run_nms"] = run
	layer["experiments."+w.prefix+"_teardown_nms"] = teardown
}

// compare runs the workload's own A-versus-B rows: the tree with and
// without the defense, the forest at one and two shards.
func (w *scenarioWorkload) compare(layer map[string]float64) ([]time.Duration, error) {
	const tries = 2
	var refs []time.Duration
	timeRuns := func(run func() (outcome, error)) (float64, outcome, error) {
		var per []float64
		var last outcome
		for i := 0; i < tries; i++ {
			r0 := refk(w.parallel)
			t0 := time.Now()
			o, err := run()
			d := time.Since(t0)
			r1 := refk(w.parallel)
			if err != nil {
				return 0, o, err
			}
			refs = append(refs, r0, r1)
			per = append(per, normalise(d, (r0+r1)/2))
			last = o
		}
		return median(per), last, nil
	}
	switch w.prefix {
	case "tree":
		cfg := treeConfig(w.seed, w.small)
		with, _, err := timeRuns(func() (outcome, error) { return runTree(cfg) })
		if err != nil {
			return nil, err
		}
		cfg.Defense = experiments.NoDefense
		without, _, err := timeRuns(func() (outcome, error) { return runTree(cfg) })
		if err != nil {
			return nil, err
		}
		layer["core.defense_overhead_frac"] = (with - without) / with
	case "forest":
		one, o1, err := timeRuns(func() (outcome, error) { return w.run(true) })
		if err != nil {
			return nil, err
		}
		two, o2, err := timeRuns(func() (outcome, error) { return w.run(false) })
		if err != nil {
			return nil, err
		}
		layer["experiments.forest_speedup_2v1"] = one / two
		if o1.fingerprint == o2.fingerprint {
			layer["experiments.forest_fingerprint_equal"] = 1
		}
	}
	return refs, nil
}

// fleetLayers fills the rows a fleet workload's traced phase yields.
func fleetLayers(layer map[string]float64, ph phase, fin finishReport) {
	var queueWait, exec []float64
	var wall time.Duration
	ops, polls := 0, 0
	for _, r := range ph.reps {
		queueWait = append(queueWait, durationsMs(r.queueWait)...)
		exec = append(exec, durationsMs(r.exec)...)
		wall += r.use.wall
		ops += r.ops
		polls += r.polls
	}
	layer["fleet.queue_wait_p50_ms"] = median(queueWait)
	layer["fleet.exec_p50_ms"] = median(exec)
	if ops > 0 {
		layer["fleet.polls_per_case"] = float64(polls) / float64(ops)
	}
	if wall > 0 {
		layer["fleet.sim_frac"] = float64(fin.execTime) / float64(wall)
	}
}

func sortedKeys(m map[string]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
