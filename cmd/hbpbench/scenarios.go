package main

import (
	"fmt"
	"regexp"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/topology"
)

// Fixed per-workload labels: an input is a function of
// des.DeriveSeed(seed, label) and nothing else.
const (
	labelTree     = 0x7472_6565 // "tree"
	labelForest   = 0x666f_7265 // "fore"
	labelInternet = 0x696e_6574 // "inet"
)

// The seed re-draws the traffic, never a topology. A topology's size
// follows its generator seed — between two forest seeds the route
// tables took 15.8 k and 19.1 k allocations, between two AS-graph
// seeds the capture fraction went from 0 to 0.4 — and the acceptance
// check reads the spread of every metric over ten seeds as noise, so
// input variation of that size would bury the code's.
const (
	// forestSeed fixes the forest: ForestConfig has one seed for the
	// trees and the traffic alike (see forestConfig).
	forestSeed = 1
	// internetGraphSeed fixes the internet-scale AS graph.
	internetGraphSeed = 1
)

// outcome is the part of a scenario result the harness looks at,
// common to the three scenario families.
type outcome struct {
	fingerprint  string
	leakClean    bool
	events       uint64
	queueDrops   int64
	attackers    int
	captured     int
	ctrlMsgs     int64
	peakState    int
	captureTimes []float64
	macroSent    int64
	macroSkipped int64
	wall         time.Duration
}

// scenarioWorkload drives one experiments.Run* entry point. run(true)
// executes the reference variant — the engine width the fingerprint is
// defined at — and run(false) the measured one; both must agree.
type scenarioWorkload struct {
	prefix   string
	minReps  int
	parallel float64
	// configure derives the input from the seed and returns the runner
	// plus, where the scenario does not report its own phases, a
	// function that rebuilds just the topology (for the traced run).
	configure func(seed int64, small bool) (run func(reference bool) (outcome, error), build func())

	small bool
	seed  int64
	run   func(reference bool) (outcome, error)
	build func()
	ref   string
}

func (w *scenarioWorkload) info() workloadInfo {
	return workloadInfo{opUnit: "run", normalised: true, parallel: w.parallel, minReps: w.minReps}
}

func (w *scenarioWorkload) setUp(seed int64) error {
	w.seed = seed
	w.run, w.build = w.configure(seed, w.small)
	o, err := w.run(true)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if err := o.healthy(); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	w.ref = o.fingerprint
	return nil
}

func (w *scenarioWorkload) tearDown() error { return nil }

func (w *scenarioWorkload) finish() finishReport { return finishReport{} }

func (o outcome) healthy() error {
	switch {
	case !o.leakClean:
		return fmt.Errorf("teardown leaked")
	case o.captured == 0:
		return fmt.Errorf("captured nothing")
	}
	return nil
}

func (w *scenarioWorkload) rep(rec *recorder, id string) repResult {
	res := repResult{ops: 1}
	root := rec.begin(w.prefix+".rep", noSpan, id)
	if rec != nil && w.build != nil {
		// The scenario does not say how long construction took, so the
		// traced run builds the same topology once more beside it.
		s := rec.begin(w.prefix+".build", root, id)
		w.build()
		rec.end(s, "")
	}
	call := rec.begin(w.prefix+".scenario", root, id)
	m := startMeter()
	o, err := w.run(false)
	res.use = m.stop()
	t0, total := m.start, res.use.wall
	rec.end(call, "")
	if rec != nil {
		// Phases inside the call, reconstructed from what the scenario
		// reports: the event loop is the last thing it does before
		// collection, so its span ends where the call ends.
		run := o.wall
		if run == 0 {
			run = total
		}
		r := rec.begin(w.prefix+".run", call, id)
		rec.setInterval(r, t0.Add(total-run), t0.Add(total))
		if w.build == nil {
			b := rec.begin(w.prefix+".build", call, id)
			rec.setInterval(b, t0, t0.Add(total-run))
		}
	}
	// Releasing the run's heap is its teardown as seen from outside.
	td := rec.begin(w.prefix+".teardown", root, id)
	runtime.GC()
	rec.end(td, "")
	rec.end(root, "")

	if err != nil {
		res.fail("%s: %v", id, err)
		return res
	}
	if herr := o.healthy(); herr != nil {
		res.fail("%s: %v", id, herr)
	} else if o.fingerprint != w.ref {
		res.fail("%s: fingerprint differs from the reference run", id)
	}
	res.events, res.queueDrops = o.events, o.queueDrops
	res.attackers, res.captured = o.attackers, o.captured
	res.ctrlMsgs, res.peakState, res.captureTimes = o.ctrlMsgs, o.peakState, o.captureTimes
	res.macroSent, res.macroSkipped = o.macroSent, o.macroSkipped
	res.runWall = o.wall
	return res
}

// ---- tree-defense ----

func treeConfig(seed int64, small bool) experiments.TreeConfig {
	cfg := experiments.DefaultTreeConfig()
	// Topology.Seed stays at its default: the seed drives the scenario's
	// streams (who attacks, when each source sends) on one fixed tree.
	cfg.Seed = des.DeriveSeed(seed, labelTree)
	if small {
		cfg.Topology.Leaves = 40
		cfg.NumAttackers = 6
		cfg.Duration = 30
		cfg.AttackEnd = 28
	}
	return cfg
}

func runTree(cfg experiments.TreeConfig) (outcome, error) {
	r, err := experiments.RunTree(cfg)
	if err != nil {
		return outcome{}, err
	}
	fp := fmt.Sprintf("events=%d drops=%d ctrl=%d peak=%d during=%.12g caps=",
		r.EventsFired, r.QueueDrops, r.CtrlMessages, r.PeakState, r.MeanDuringAttack)
	for _, c := range r.Captures {
		fp += fmt.Sprintf("%.9f:%d>%d,", c.Time, c.Router, c.Attacker)
	}
	return outcome{
		fingerprint: fp, leakClean: r.Leak.Clean(),
		events: r.EventsFired, queueDrops: r.QueueDrops,
		attackers: cfg.NumAttackers, captured: r.AttackersCaptured,
		ctrlMsgs: r.CtrlMessages, peakState: r.PeakState, captureTimes: r.CaptureTimes,
	}, nil
}

func newTreeDefense() *scenarioWorkload {
	return &scenarioWorkload{
		prefix: "tree", minReps: 12,
		configure: func(seed int64, small bool) (func(bool) (outcome, error), func()) {
			cfg := treeConfig(seed, small)
			// The sequential engine has one width: the reference run is
			// the measured run.
			return func(bool) (outcome, error) { return runTree(cfg) },
				func() { topology.NewTree(des.New(), cfg.Topology) }
		},
	}
}

// ---- forest-sharded ----

func forestConfig(seed int64, small bool) experiments.ForestConfig {
	cfg := experiments.DefaultForestConfig()
	cfg.Parts = 8
	cfg.LeavesPerPart = 16
	cfg.AttackersPerPart = 3
	cfg.Duration = 20
	cfg.AttackStart = 2
	cfg.AttackEnd = 18
	// The forest's one seed also draws the eight trees, so it is fixed
	// and the benchmark seed moves what it can without re-drawing them:
	// both traffic rates, by up to ±5 %, which re-times every packet.
	cfg.Seed = forestSeed
	jitter := 1 + (float64(uint64(des.DeriveSeed(seed, labelForest))%2001)-1000)/20_000
	cfg.AttackRate *= jitter
	cfg.CrossRate *= jitter
	if small {
		cfg.Parts = 4
		cfg.Duration = 8
		cfg.AttackEnd = 7
	}
	return cfg
}

// captureRE matches one capture record, "time:router>attacker", inside
// a forest or internet fingerprint.
var captureRE = regexp.MustCompile(`[0-9.]+:\d+>(\d+)`)

// distinctCaptured counts the distinct hosts a fingerprint's capture
// schedule names. The fingerprint is the only public place the forest
// and internet results list who was captured.
func distinctCaptured(fp string) int {
	seen := map[string]bool{}
	for _, m := range captureRE.FindAllStringSubmatch(fp, -1) {
		seen[m[1]] = true
	}
	return len(seen)
}

func runForest(cfg experiments.ForestConfig) (outcome, error) {
	r, err := experiments.RunShardedForest(cfg)
	if err != nil {
		return outcome{}, err
	}
	fp := r.Fingerprint()
	attackers := cfg.Parts * cfg.AttackersPerPart
	return outcome{
		fingerprint: fp, leakClean: r.Leak.Clean(),
		events: r.EventsFired, queueDrops: r.QueueDrops,
		attackers: attackers, captured: min(distinctCaptured(fp), attackers),
		ctrlMsgs: r.CtrlMessages, wall: r.Wall,
	}, nil
}

func newForestSharded() *scenarioWorkload {
	return &scenarioWorkload{
		prefix: "forest", minReps: 12, parallel: twoThreadShare,
		configure: func(seed int64, small bool) (func(bool) (outcome, error), func()) {
			cfg := forestConfig(seed, small)
			return func(reference bool) (outcome, error) {
				c := cfg
				c.Shards = 2
				if reference {
					c.Shards = 1
				}
				return runForest(c)
			}, nil
		},
	}
}

// ---- internet-scale ----

func internetConfig(seed int64, small bool) experiments.InternetConfig {
	// The topology of the 10^5-zombie sweep point: 200 k hosts on 4000
	// ASes.
	size := 100_000
	if small {
		size = 1000
	}
	// The seed drives every traffic stream on the fixed graph.
	cfg := experiments.InternetConfigFor(size, internetGraphSeed)
	cfg.Seed = des.DeriveSeed(seed, labelInternet)
	// A tenth of that point's zombies. At 10^5 the defense sits at its
	// dispersion limit and captures 30 to 47 % depending on the traffic
	// seed; at 10^4 it captures every zombie at every seed, so the
	// simulated outcome is the same input property in every run.
	cfg.Zombies = size / 10
	return cfg
}

func runInternet(cfg experiments.InternetConfig) (outcome, error) {
	r, err := experiments.RunInternet(cfg)
	if err != nil {
		return outcome{}, err
	}
	fp := r.Fingerprint()
	return outcome{
		fingerprint: fp, leakClean: r.Leak.Clean(),
		events: r.EventsFired, queueDrops: r.QueueDrops,
		attackers: cfg.Zombies, captured: min(distinctCaptured(fp), cfg.Zombies),
		ctrlMsgs: r.CtrlMessages, peakState: r.PeakState, captureTimes: r.CaptureTimes,
		macroSent: r.AttackSent, macroSkipped: r.AttackSkipped,
		wall: r.Wall,
	}, nil
}

func newInternetScale() *scenarioWorkload {
	return &scenarioWorkload{
		// Construction, about half of the run, is single-threaded.
		prefix: "internet", minReps: 12, parallel: twoThreadShare,
		configure: func(seed int64, small bool) (func(bool) (outcome, error), func()) {
			cfg := internetConfig(seed, small)
			return func(reference bool) (outcome, error) {
				c := cfg
				c.Shards = 2
				if reference {
					c.Shards = 1
				}
				return runInternet(c)
			}, nil
		},
	}
}
