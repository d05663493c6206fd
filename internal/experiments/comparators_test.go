package experiments

import (
	"context"
	"testing"
)

func TestStackPiAccuracyDegrades(t *testing.T) {
	few, err := RunStackPi(context.Background(), 120, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunStackPi(context.Background(), 120, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	if many.FalsePositives < few.FalsePositives {
		t.Fatalf("StackPi FP rate fell with more attackers: %.3f -> %.3f",
			few.FalsePositives, many.FalsePositives)
	}
	// Learned-path packets are always caught (marks are deterministic).
	if few.FalseNegatives != 0 || many.FalseNegatives != 0 {
		t.Fatalf("learned paths produced false negatives: %.3f / %.3f",
			few.FalseNegatives, many.FalseNegatives)
	}
	if many.LearnedMarks == 0 {
		t.Fatal("no marks learned")
	}
}

func TestSPIEStorageAccuracyTradeoff(t *testing.T) {
	small, err := RunSPIE(context.Background(), 80, 10, 1<<9, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunSPIE(context.Background(), 80, 10, 1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if small.Total != 10 || large.Total != 10 {
		t.Fatalf("probe delivery broken: %d / %d", small.Total, large.Total)
	}
	if large.Correct != large.Total {
		t.Fatalf("large filters should trace every probe: %d/%d", large.Correct, large.Total)
	}
	if small.Correct >= large.Correct {
		t.Fatalf("tiny filters no worse than large ones: %d vs %d", small.Correct, large.Correct)
	}
	if small.Ambiguous == 0 {
		t.Fatal("tiny filters produced no ambiguity")
	}
	if large.BitsPerRouter <= small.BitsPerRouter {
		t.Fatal("storage accounting inverted")
	}
}

func TestExtTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	for name, gen := range map[string]func(Scale) (*Table, error){
		"stackpi": ExtStackPi,
		"spie":    ExtSPIE,
	} {
		tab, err := gen(QuickScale())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) < 3 {
			t.Fatalf("%s: only %d rows", name, len(tab.Rows))
		}
		if tab.Render() == "" {
			t.Fatalf("%s: empty render", name)
		}
	}
}

func TestStackPiFilterDefenseOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	during := func(d DefenseKind, attackers int) float64 {
		cfg := DefaultTreeConfig()
		cfg.Topology.Leaves = 100
		cfg.NumAttackers = attackers
		cfg.AttackRate = 0.3e6
		cfg.Defense = d
		r, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanDuringAttack
	}
	hbp := during(HBP, 25)
	pi := during(StackPiFilter, 25)
	none := during(NoDefense, 25)
	// The victim-side mark filter helps, but less than tracing back
	// and shutting the zombies off (Sec. 2's comparison).
	if !(none < pi && pi < hbp) {
		t.Fatalf("ordering broken: none=%.3f stackpi=%.3f hbp=%.3f", none, pi, hbp)
	}
	// Even with more attack volume filtered, the mark filter must stay
	// clearly below HBP (collisions + per-epoch learning latency); the
	// false-positive growth with dispersion itself is asserted by
	// TestStackPiAccuracyDegrades on the filter directly.
	piMany := during(StackPiFilter, 50)
	hbpMany := during(HBP, 50)
	if piMany >= hbpMany {
		t.Fatalf("mark filter matched HBP at high dispersion: %.3f vs %.3f", piMany, hbpMany)
	}
}
