package scenario

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// panicError carries a recovered executor panic to the supervisor.
type panicError struct {
	value string
	stack string
}

func (e *panicError) Error() string { return "panic: " + e.value }

// runAttempt executes one attempt with panic isolation: a panicking
// executor is recovered into a panicError (with the goroutine stack)
// instead of taking the worker — and the daemon — down with it.
func runAttempt(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (res *CaseResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = nil
			err = &panicError{value: fmt.Sprint(rec), stack: string(debug.Stack())}
		}
	}()
	return executeCase(ctx, spec, seed, maxEvents)
}

// SupervisedAttempt is the attempt envelope the local runner and fleet
// workers share: derive the attempt's seed, make the per-seed
// infrastructure-crash roll (so every supervisor reports the infra
// faults a solo run of that seed would hit), then run the
// panic-isolated executor under the spec's wall and event deadlines,
// falling back to the caller's defaults. Classifying the error and
// deciding on a retry stay with the caller.
func SupervisedAttempt(ctx context.Context, spec *CaseSpec, baseSeed int64, attempt int, wallDeadline time.Duration, maxEvents uint64) (*CaseResult, error) {
	seed := AttemptSeed(baseSeed, attempt)
	if (faults.InfraCrash{Prob: spec.InfraCrashProb}).Roll(seed) {
		return nil, faults.ErrInfraCrash
	}
	if spec.MaxEvents != 0 {
		maxEvents = spec.MaxEvents
	}
	ctx, cancel := context.WithTimeout(ctx, spec.WallDeadline(wallDeadline))
	defer cancel()
	return runAttempt(ctx, spec, seed, maxEvents)
}

// RunCaseSolo executes one case outside any supervision — no retries,
// deadlines, chaos or panic isolation. It is the isolation baseline:
// a healthy supervised first attempt must produce a result fingerprint
// bit-identical to RunCaseSolo with the same spec and seed.
func RunCaseSolo(spec *CaseSpec, seed int64) (*CaseResult, error) {
	return executeCase(context.Background(), spec, seed, 0)
}

// executeCase dispatches to the kind's executor.
func executeCase(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (*CaseResult, error) {
	if spec.PanicForTest {
		panic("scenario: case requested a test panic")
	}
	switch spec.EffectiveKind() {
	case "tree":
		return executeTree(ctx, spec, seed, maxEvents)
	case "figure":
		return executeFigure(ctx, spec)
	default:
		return nil, fmt.Errorf("scenario: unknown case kind %q", spec.Kind)
	}
}

func executeTree(ctx context.Context, spec *CaseSpec, seed int64, maxEvents uint64) (*CaseResult, error) {
	ts := TreeSpec{}
	if spec.Tree != nil {
		ts = *spec.Tree
	}
	// The attempt's seed, not the spec's, drives the run and the fault
	// plan Config derives from it; a zero seed is literal here, not
	// Config's "default".
	ts.Seed = seed
	cfg, err := ts.Config()
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	cfg.Context = ctx
	cfg.EventLimit = maxEvents
	res, err := experiments.RunTree(cfg)
	if err != nil {
		return nil, err
	}
	if !res.Leak.Clean() {
		return nil, &leakError{res.Leak}
	}
	tcr := &TreeCaseResult{
		MeanBefore:        res.MeanBefore,
		MeanDuringAttack:  res.MeanDuringAttack,
		AttackersCaptured: res.AttackersCaptured,
		CollateralBlocks:  res.CollateralBlocks,
		CaptureTimes:      res.CaptureTimes,
		CtrlMessages:      res.CtrlMessages,
		Ctrl:              res.Ctrl,
		Sec:               res.Sec,
		OpenSessionsAtEnd: res.OpenSessionsAtEnd,
		QueueDrops:        res.QueueDrops,
		EventsFired:       res.EventsFired,
		Leak:              res.Leak,
		Throughput:        res.Throughput,
	}
	return &CaseResult{Kind: "tree", Tree: tcr, Fingerprint: fingerprint(tcr)}, nil
}

func executeFigure(ctx context.Context, spec *CaseSpec) (*CaseResult, error) {
	gen, ok := experiments.Figures()[spec.Figure.Fig]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown figure %q", spec.Figure.Fig)
	}
	scale, err := figureScale(spec.Figure.Scale)
	if err != nil {
		return nil, err
	}
	scale.Ctx = ctx
	tab, err := gen(scale)
	if err != nil {
		return nil, err
	}
	fcr := &FigureCaseResult{Fig: spec.Figure.Fig, Title: tab.Title, Rendered: tab.Render()}
	return &CaseResult{Kind: "figure", Figure: fcr, Fingerprint: fingerprint(fcr)}, nil
}

// leakError reports a dirty teardown audit; the supervisor maps it to
// ErrLeak and refuses to count the run as passed.
type leakError struct {
	leak experiments.LeakReport
}

func (e *leakError) Error() string {
	return fmt.Sprintf("teardown leaked %d packets and %d defense state entries",
		e.leak.PacketsOutstanding, e.leak.DefenseState)
}
