// Command hbpbench is the repository's benchmark: five workloads that
// each put one group of layers to work, end-to-end metrics in host
// time normalised against a reference kernel, and per-layer numbers
// taken purely from outside by timing calls into each layer's public
// functions. See README.md beside this file for every definition.
//
//	go run ./cmd/hbpbench                        all five workloads, one fresh process each
//	go run ./cmd/hbpbench -workload tree-defense one workload in this process
//	go run ./cmd/hbpbench -trace 1               the traced run: per-layer metrics + trace.json
//	go run ./cmd/hbpbench -aa 3                  A/A check: three sets of runs, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any operation failed a correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procStart is the earliest clock reading the program can take;
// set-up time is counted from here.
var procStart = time.Now()

const (
	// benchProcs fixes GOMAXPROCS so a result does not depend on how
	// many processors the host happens to offer; it also caps engine
	// shards and fleet workers.
	benchProcs = 2
	// setUpPasses is how many times a run sets up; setup_s is the
	// median pass.
	setUpPasses = 3
)

func main() {
	runtime.GOMAXPROCS(benchProcs)
	var (
		name  = flag.String("workload", "", "run this workload in-process (default: all five, one fresh process each)")
		seed  = flag.Int64("seed", defaultSeed, "input seed; every workload derives its input from it")
		trace = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json instead of end-to-end metrics")
		aa    = flag.Int("aa", 0, "N > 0: A/A check, the full set run N times in fresh processes and compared (3 is the documented check)")
		// Run length is fixed by the benchmark, so that two sides of a
		// comparison cannot differ in it. The flag exists because the
		// benchmark driver always passes BENCHMARK.json's run_seconds.
		seconds = flag.Int("seconds", runSeconds, "accepted for the benchmark driver's command line; only the fixed run length is allowed")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds != runSeconds || *trace < 0 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed))
	case *name == "":
		os.Exit(runAll(*seed, *trace))
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "hbpbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(def, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

const (
	defaultSeed = 1
	// runSeconds is how long the timed phase of an end-to-end run
	// lasts; it is BENCHMARK.json's run_seconds.
	runSeconds = 15
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase is one timed stretch of repetitions with the reference kernel
// run before the first and after every one: refs[i] and refs[i+1]
// bracket reps[i].
type phase struct {
	reps []repResult
	refs []time.Duration
	// memory holds the untimed repetitions of the memory phase; they
	// count towards attempts and failures only.
	memory []repResult
}

// refFor is the reference time that applies to repetition i: the mean
// of the two kernel readings around it, or refUnit (factor 1) for a
// timer-bound workload — a timer takes as long on the host where refk
// takes refUnit as it does here, so there a raw millisecond is a
// normalised one.
func (p *phase) refFor(i int, normalised bool) time.Duration {
	if !normalised {
		return refUnit
	}
	return (p.refs[i] + p.refs[i+1]) / 2
}

// repeat runs repetitions while more says so, with the reference
// kernel before the first and after every one.
func repeat(w workload, rec *recorder, label string, more func(done int, elapsed time.Duration) bool) phase {
	parallel := w.info().parallel
	var ph phase
	ph.refs = append(ph.refs, refk(parallel))
	start := time.Now()
	for i := 0; more(i, time.Since(start)); i++ {
		ph.reps = append(ph.reps, w.rep(rec, fmt.Sprintf("%s-%d", label, i)))
		ph.refs = append(ph.refs, refk(parallel))
	}
	return ph
}

// timedPhase repeats the workload for runSeconds, at least minReps
// times and, when maxReps is set, exactly maxReps times.
func timedPhase(w workload) phase {
	info := w.info()
	return repeat(w, nil, "rep", func(done int, elapsed time.Duration) bool {
		if info.maxReps > 0 {
			return done < info.maxReps
		}
		return done < info.minReps || elapsed < runSeconds*time.Second
	})
}

// memoryReps is how many repetitions of their own the peak-memory
// figure gets.
const memoryReps = 3

// memoryPhase measures peak resident memory: memoryReps more
// repetitions, untimed, each from a heap handed back to the kernel and
// a reset high-water mark, and each one's peak. A per-process maximum
// would grow with the number of repetitions and with the collector's
// luck. Their correctness checks count like any other repetition's.
//
// The idle heap the runtime still holds after handing back what it
// will is taken off the peak: in about one process in ten it keeps
// 2 to 2.5 MB that the repetition then never touches, which is 5 % of
// tree-defense's resident set and nothing the program did.
func memoryPhase(w workload, ph *phase) []float64 {
	var peaks []float64
	for i := 0; i < memoryReps; i++ {
		debug.FreeOSMemory()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		resetPeakRSS()
		r := w.rep(nil, fmt.Sprintf("memory-%d", i))
		peaks = append(peaks, peakRSSMB()-float64(ms.HeapIdle-ms.HeapReleased)/(1<<20))
		ph.memory = append(ph.memory, r)
	}
	return peaks
}

// runWorkload executes one workload in this process and prints its
// report; the caller prints the result line.
func runWorkload(def workloadDef, seed int64, traced bool) (result, error) {
	w := def.make()
	stamp := stampMachine()
	fmt.Printf("== %s  seed=%d  trace=%v\n", def.name, seed, traced)

	// Set-up, several times over: each pass generates the input, builds
	// the fixtures and proves them with warm-up work. The first pass
	// starts at process start and so carries everything a cold process
	// pays once.
	passes := setUpPasses
	if traced {
		passes = 1
	}
	var setups []float64
	var coldSetup time.Duration
	refBefore := refk(w.info().setUpParallel)
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if pass == 0 {
			t0 = procStart
		}
		if err := w.setUp(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		if pass == 0 {
			coldSetup = d
		}
		refAfter := refk(w.info().setUpParallel)
		ref := (refBefore + refAfter) / 2
		if !w.info().normalised {
			ref = refUnit
		}
		setups = append(setups, normalise(d, ref)/1000)
		refBefore = refAfter
	}
	info := w.info()
	stamp.JournalFS = info.journalFS

	var res result
	var err error
	if traced {
		res, err = tracedRun(def.name, w, seed, &stamp)
	} else {
		ph := timedPhase(w)
		rss := memoryPhase(w, &ph)
		fin := w.finish()
		refs := durationsMs(ph.refs)
		stamp.RefP50Ms, stamp.RefIQRFrac = median(refs), iqrFrac(refs)
		var all map[string]float64
		res, all = endToEndResult(def.name, info, ph, fin, setups, rss)
		fmt.Printf("   set-up passes (normalised s): %s; cold first pass %.3f s raw\n", fmtFloats(setups), coldSetup.Seconds())
		// Every end-to-end metric this workload defines, for -aa: the
		// result line may carry only those every workload defines.
		ab, _ := json.Marshal(all)
		fmt.Printf("%s%s\n", definedPrefix, ab)
	}
	if terr := w.tearDown(); terr != nil && err == nil {
		err = fmt.Errorf("tear-down: %w", terr)
	}
	if err != nil {
		return result{}, err
	}
	sb, _ := json.Marshal(stamp)
	fmt.Printf("   machine: %s\n", sb)
	return res, nil
}

// definedPrefix marks the report line that lists, as one JSON object,
// every end-to-end metric the workload defines.
const definedPrefix = "   defined: "

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// tally sums attempts and failures over repetitions and the final
// audit, printing the first few reasons.
func tally(ph phase, fin finishReport) (attempted, failed int) {
	var why []string
	for _, r := range append(append([]repResult(nil), ph.reps...), ph.memory...) {
		attempted += r.ops
		failed += r.failed
		why = append(why, r.why...)
	}
	failed += fin.failed
	why = append(why, fin.why...)
	for i, line := range why {
		if i == 10 {
			fmt.Printf("   FAIL … and %d more\n", len(why)-i)
			break
		}
		fmt.Printf("   FAIL %s\n", line)
	}
	return attempted, failed
}

// measured is one end-to-end figure with the number of samples under
// it.
type measured struct {
	value float64
	n     int
}

// endToEndMetrics turns an untraced phase into the end-to-end metrics
// the workload defines (setup_s and peak_rss_mb excepted, which are not
// taken from repetitions). A repetition is scored against the
// reference kernel runs around it, and the figure is the median over
// repetitions: every repetition ran the same input, so the spread
// between them is the host's.
func endToEndMetrics(workload string, info workloadInfo, ph phase) map[string]measured {
	n := len(ph.reps)
	var opTime, cpuPerOp, opsPerSec, mallocs, mbytes, latency []float64
	ops, samples := 0, 0
	for i, r := range ph.reps {
		ref := ph.refFor(i, info.normalised)
		o := float64(r.ops)
		wall := normalise(r.use.wall, ref)
		opsPerSec = append(opsPerSec, o/(wall/1000))
		// CPU time scales with host speed even where wall time is
		// timer-bound, so it is always normalised.
		cpuPerOp = append(cpuPerOp, normalise(r.use.cpu, ph.refFor(i, true))/o)
		mallocs = append(mallocs, float64(r.use.mallocs)/o)
		mbytes = append(mbytes, float64(r.use.bytes)/o/(1<<20))
		switch {
		case info.opUnit == "run":
			// A scenario run is the operation.
			opTime = append(opTime, wall)
			samples++
		case info.normalised:
			// Each segment has its own scale: its median round trip
			// first, the median over segments after.
			opTime = append(opTime, median(durationsMs(r.roundTrip))*float64(refUnit)/float64(ref))
			samples += len(r.roundTrip)
		default:
			// Raw milliseconds share one scale: pool the cases.
			opTime = append(opTime, durationsMs(r.roundTrip)...)
			samples += len(r.roundTrip)
		}
		latency = append(latency, durationsMs(r.latency)...)
		ops += r.ops
	}
	last := ph.reps[n-1]
	m := map[string]measured{
		"run_p50_nms":        {median(opTime), samples},
		"cases_per_s":        {median(opsPerSec), n},
		"run_latency_p50_ms": {median(latency), len(latency)},
		"run_latency_p90_ms": {quantile(latency, supportedPercentile(90, len(latency))/100), len(latency)},
		"cpu_nms_per_run":    {median(cpuPerOp), n},
		"allocs_per_run":     {median(mallocs), n},
		"alloc_mb_per_run":   {median(mbytes), n},
		// A simulated statistic, identical in every repetition.
		"capture_frac": {float64(last.captured) / float64(max(last.attackers, 1)), n},
	}
	for _, d := range endToEnd {
		if !d.definedOn(workload) {
			delete(m, d.name)
		}
	}
	return m
}

// endToEndResult prints the ten end-to-end metrics with units and
// sample counts — n/a where the workload does not define one — and
// returns the result line (the metrics every workload defines) and
// every metric this workload defines.
func endToEndResult(workload string, info workloadInfo, ph phase, fin finishReport, setups, rss []float64) (result, map[string]float64) {
	attempted, failed := tally(ph, fin)
	m := endToEndMetrics(workload, info, ph)
	m["setup_s"] = measured{median(setups), len(setups)}
	m["peak_rss_mb"] = measured{median(rss), len(rss)}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	all := map[string]float64{}
	norm := fmt.Sprintf("normalised by refk (two-copy share %g)", info.parallel)
	if !info.normalised {
		norm = "raw: timer-bound workload, where a raw millisecond is a normalised one"
	}
	ops := 0
	var dump []string
	for i, r := range ph.reps {
		ops += r.ops
		dump = append(dump, fmt.Sprintf("%.1f/%.1f", ms(r.use.wall), ms(ph.refFor(i, true))))
	}
	fmt.Printf("   %d repetitions of identical input, %d %ss; host times %s\n", len(ph.reps), ops, info.opUnit, norm)
	for _, d := range endToEnd {
		v, ok := m[d.name]
		if !ok {
			fmt.Printf("   %-20s %14s %-6s (not defined on this workload)\n", d.name, "n/a", d.unit)
			continue
		}
		all[d.name] = v.value
		if d.only == nil {
			res.Metrics[d.name] = metricValue{Value: v.value, Unit: d.unit}
		}
		fmt.Printf("   %-20s %14.6g %-6s n=%d\n", d.name, v.value, d.unit, v.n)
	}
	if last := ph.reps[len(ph.reps)-1]; last.events > 0 {
		fmt.Printf("   %-20s %14.6g %-6s (derived, ungated)\n", "events_per_nsec", float64(last.events)/(m["run_p50_nms"].value/1000), "1/s")
	}
	fmt.Printf("   per repetition, raw ms / reference ms: %s\n", strings.Join(dump, " "))
	fmt.Printf("   attempted=%d failed=%d\n", attempted, failed)
	return res, all
}

// ---- all workloads / A-A ----

// runChild runs one workload in a fresh process of this same binary
// and returns its result line and its "defined" report line.
func runChild(name string, seed int64, trace int, quiet bool) (result, map[string]float64, error) {
	return execSelf([]string{"-workload", name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace)}, quiet)
}

func runAll(seed int64, trace int) int {
	code := 0
	for _, def := range workloads {
		res, _, err := runChild(def.name, seed, trace, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbpbench: %s: %v\n", def.name, err)
			code = 1
			continue
		}
		if !res.Correct {
			code = 1
		}
		if trace == 1 {
			if err := os.Rename("trace.json", "trace."+def.name+".json"); err != nil {
				fmt.Fprintf(os.Stderr, "hbpbench: %v\n", err)
				code = 1
			}
		}
	}
	return code
}

// runAA is the A/A check: the same code, the same seed, the full set
// of workloads n times over, each run in a fresh process. For every
// end-to-end metric, on every workload that defines it, it prints the
// worst pairwise difference between the n runs beside the metric's
// bound, and fails when any difference exceeds its bound.
//
// Two rows are printed and cannot fail: a metric without a bound, and
// setup_s, whose spread the benchmark's driver does not check either
// (it compares medians of ten runs): a run's figure is the median of
// setUpPasses passes of about a second each, and one pass in a slow
// spell of the host moves it by a quarter.
func runAA(n int, seed int64) int {
	// runs[workload][metric] holds one value per set.
	runs := map[string]map[string][]float64{}
	for set := 0; set < n; set++ {
		for _, def := range workloads {
			fmt.Fprintf(os.Stderr, "hbpbench: A/A set %d/%d: %s\n", set+1, n, def.name)
			res, all, err := runChild(def.name, seed, 0, true)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "hbpbench: %s: failed (%v)\n", def.name, err)
				return 1
			}
			if runs[def.name] == nil {
				runs[def.name] = map[string][]float64{}
			}
			for k, v := range all {
				runs[def.name][k] = append(runs[def.name][k], v)
			}
		}
	}
	fmt.Printf("A/A: the full set %d times, seed %d, %d s timed per run.\n", n, seed, runSeconds)
	fmt.Printf("Worst pairwise difference between runs, against the bound (in brackets: not checked):\n")
	fmt.Printf("%-20s", "metric")
	for _, def := range workloads {
		fmt.Printf(" %15s", def.name)
	}
	fmt.Printf(" %7s\n", "bound")
	var over []string
	for _, d := range endToEnd {
		checked := d.bound != noBound && d.name != "setup_s"
		fmt.Printf("%-20s", d.name)
		for _, def := range workloads {
			if !d.definedOn(def.name) {
				fmt.Printf(" %15s", "n/a")
				continue
			}
			vals := runs[def.name][d.name]
			diff := worstPairwise(vals)
			mark := " "
			if checked && diff > d.bound {
				mark = "!"
				over = append(over, fmt.Sprintf("%s on %s read %v", d.name, def.name, vals))
			}
			fmt.Printf(" %13.1f%%%s", 100*diff, mark)
		}
		switch {
		case d.bound == noBound:
			fmt.Printf(" %7s\n", "(none)")
		case !checked:
			fmt.Printf(" %6s\n", fmt.Sprintf("(%.0f%%)", 100*d.bound))
		default:
			fmt.Printf(" %5.0f%%\n", 100*d.bound)
		}
	}
	if len(over) == 0 {
		return 0
	}
	fmt.Println("A/A FAILED: a difference marked ! exceeds its bound")
	for _, line := range over {
		fmt.Println("  " + line)
	}
	return 1
}

// worstPairwise is the largest difference between any two values as a
// share of the smaller one's magnitude — max/min − 1.
func worstPairwise(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if lo <= 0 {
		if hi == lo {
			return 0
		}
		return 1
	}
	return hi/lo - 1
}
