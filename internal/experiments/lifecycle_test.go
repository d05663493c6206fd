package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/des"
	"repro/internal/faults"
)

// TestRunTreeLeakFreeTeardown is the satellite teardown audit: for
// every defense, a completed run must return the packet pool and the
// defense state tables to zero. A leak here means a long-lived scenario
// daemon bleeds memory run over run.
func TestRunTreeLeakFreeTeardown(t *testing.T) {
	for _, d := range []DefenseKind{NoDefense, Pushback, PushbackLevelK, StackPiFilter, HBP} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := QuickScale().treeConfig()
			cfg.Defense = d
			res, err := RunTree(cfg)
			if err != nil {
				t.Fatalf("RunTree: %v", err)
			}
			if !res.Leak.Clean() {
				t.Fatalf("teardown leaked: %d packets outstanding, %d defense state entries",
					res.Leak.PacketsOutstanding, res.Leak.DefenseState)
			}
		})
	}
}

// TestRunTreeLeakFreeUnderFaults repeats the audit in the nastiest
// configuration: crashes, byzantine routers, loss, and the reliable
// control plane all at once.
func TestRunTreeLeakFreeUnderFaults(t *testing.T) {
	cfg := QuickScale().treeConfig()
	cfg.Reliable = true
	cfg.EpochAuth = true
	cfg.FaultCrashes = 3
	cfg.ByzantineNodes = 2
	cfg.Faults = &faults.Plan{Seed: 42, Loss: faults.LossSpec{Prob: 0.05}}
	res, err := RunTree(cfg)
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	if !res.Leak.Clean() {
		t.Fatalf("teardown leaked under faults: %d packets outstanding, %d defense state entries",
			res.Leak.PacketsOutstanding, res.Leak.DefenseState)
	}
}

// TestRunTreeCancellation checks the cooperative checkpoint: a
// pre-cancelled context aborts the run with a wrapped context.Canceled
// before it completes.
func TestRunTreeCancellation(t *testing.T) {
	cfg := QuickScale().treeConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Context = ctx
	if _, err := RunTree(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTree with cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestRunTreeEventLimit checks the simulated-event deadline: a tiny
// EventLimit aborts with des.ErrEventLimit.
func TestRunTreeEventLimit(t *testing.T) {
	cfg := QuickScale().treeConfig()
	cfg.EventLimit = 500
	if _, err := RunTree(cfg); !errors.Is(err, des.ErrEventLimit) {
		t.Fatalf("RunTree with EventLimit=500: err = %v, want des.ErrEventLimit", err)
	}
}

// TestRunTreeContextDoesNotPerturb is the determinism guarantee the
// scenario service depends on: installing a never-cancelled context
// leaves a fixed-seed run bit-identical to one without a context.
func TestRunTreeContextDoesNotPerturb(t *testing.T) {
	plain := QuickScale().treeConfig()
	solo, err := RunTree(plain)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	withCtx := QuickScale().treeConfig()
	withCtx.Context = context.Background()
	supervised, err := RunTree(withCtx)
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if solo.EventsFired != supervised.EventsFired {
		t.Fatalf("events fired diverged: solo %d vs supervised %d", solo.EventsFired, supervised.EventsFired)
	}
	if solo.MeanDuringAttack != supervised.MeanDuringAttack {
		t.Fatalf("throughput diverged: solo %v vs supervised %v", solo.MeanDuringAttack, supervised.MeanDuringAttack)
	}
	if len(solo.Captures) != len(supervised.Captures) {
		t.Fatalf("captures diverged: solo %d vs supervised %d", len(solo.Captures), len(supervised.Captures))
	}
}

// TestInfraCrashDeterministic checks the chaos knob: Roll is a pure
// function of (Prob, seed) and hits roughly its configured rate.
func TestInfraCrashDeterministic(t *testing.T) {
	ic := faults.InfraCrash{Prob: 0.3}
	crashes := 0
	for seed := int64(0); seed < 1000; seed++ {
		first := ic.Roll(seed)
		if first != ic.Roll(seed) {
			t.Fatalf("Roll(%d) not deterministic", seed)
		}
		if first {
			crashes++
		}
	}
	if crashes < 200 || crashes > 400 {
		t.Fatalf("crash rate %d/1000 far from configured 0.3", crashes)
	}
	if (faults.InfraCrash{}).Roll(1) {
		t.Fatal("zero-prob InfraCrash crashed")
	}
}

// TestFiguresHonourScaleContext: every figure generator that simulates
// starts its engines bounded by Scale.Ctx, so a cancelled context ends
// each one with context.Canceled instead of a table. Figures 5, 7 and 9
// simulate nothing.
func TestFiguresHonourScaleContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for id, gen := range Figures() {
		if id == "5" || id == "7" || id == "9" {
			continue
		}
		s := QuickScale()
		s.Ctx = ctx
		if _, err := gen(s); !errors.Is(err, context.Canceled) {
			t.Errorf("figure %s under a cancelled context: err = %v, want context.Canceled", id, err)
		}
	}
}
