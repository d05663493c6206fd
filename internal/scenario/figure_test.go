package scenario

import (
	"context"
	"testing"
	"time"
)

// quickFigure is a figure case at quick scale.
func quickFigure(fig string) CaseSpec {
	return CaseSpec{Name: fig, Figure: &FigureSpec{Fig: fig, Scale: "quick"}}
}

// TestFigureCasesObeyWallDeadline: an attempt's wall deadline bounds
// every simulation a figure case starts — the sharded forests of
// `sharded` as much as the sequential capture rigs of `follower` — so
// a figure that needs seconds fails within moments of a 50 ms deadline.
func TestFigureCasesObeyWallDeadline(t *testing.T) {
	for _, fig := range []string{"sharded", "follower"} {
		t.Run(fig, func(t *testing.T) {
			spec := quickFigure(fig)
			start := time.Now()
			_, err := SupervisedAttempt(context.Background(), &spec, spec.BaseSeed(), 1, 50*time.Millisecond, 0)
			took := time.Since(start)
			if err == nil {
				t.Fatalf("figure %s passed under a 50 ms deadline after %v", fig, took)
			}
			if re := ClassifyError(err, 1, false); re.Kind != ErrWallDeadline {
				t.Fatalf("figure %s failed as %s (%v), want %s", fig, re.Kind, err, ErrWallDeadline)
			}
			if took > 2*time.Second {
				t.Fatalf("figure %s took %v to notice a 50 ms deadline", fig, took)
			}
		})
	}
}

// TestRunnerCancelRunningFigure: cancelling an in-flight figure case
// stops it at the next checkpoint of the simulation it is running, not
// after the whole figure.
func TestRunnerCancelRunningFigure(t *testing.T) {
	r := newTestRunner(t, Config{Workers: 1})
	s := mustSuite(t, r)
	run, err := r.Submit(s.ID, quickFigure("sharded"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := r.GetRun(run.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started (state %s)", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelled := time.Now()
	if err := r.Cancel(run.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 30*time.Second)
	if got.State != StateCancelled || got.Error == nil || got.Error.Kind != ErrCancelled {
		t.Fatalf("state = %s, err %+v; want cancelled", got.State, got.Error)
	}
	if took := time.Since(cancelled); took > 2*time.Second {
		t.Fatalf("cancelled figure ran on for %v", took)
	}
}
