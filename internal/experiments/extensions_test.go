package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestFollowerShape(t *testing.T) {
	// Eq. (12) shape: slower reactions (larger d_follow) concede more
	// hops per honeypot epoch, so capture is faster.
	slow, err := RunFollower(context.Background(), 10, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunFollower(context.Background(), 10, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slow.Captured || !fast.Captured {
		t.Fatalf("followers not captured: d=0.3 %v, d=1.0 %v", slow.Captured, fast.Captured)
	}
	if fast.MeasuredCT > slow.MeasuredCT {
		t.Fatalf("d_follow=1.0 captured slower (%.1f) than d_follow=0.3 (%.1f)",
			fast.MeasuredCT, slow.MeasuredCT)
	}
	if !fast.Model.Valid {
		t.Fatal("Eq.(12) condition should hold at d_follow=1.0")
	}
}

func TestFollowerInsideGuardInvisible(t *testing.T) {
	// A follower faster than the guard never sends inside a honeypot
	// window: untraceable (but also harmless during honeypot epochs).
	r, err := RunFollower(context.Background(), 8, 0.1, 2) // guard is 0.2 s
	if err != nil {
		t.Fatal(err)
	}
	if r.Captured {
		t.Fatal("sub-guard follower should be invisible to the honeypot")
	}
}

func TestExtRoamingOverheadTable(t *testing.T) {
	tab, err := ExtRoamingOverhead(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Parse the overhead percentage from the roaming row.
	ovh, err := strconv.ParseFloat(tab.Rows[1][3], 64)
	if err != nil {
		t.Fatalf("bad overhead cell %q", tab.Rows[1][3])
	}
	if ovh <= 0 || ovh > 20 {
		t.Fatalf("roaming overhead %.1f%% outside the plausible band (paper: 4-10%%)", ovh)
	}
	migrations, err := strconv.ParseFloat(tab.Rows[1][2], 64)
	if err != nil || migrations == 0 {
		t.Fatalf("roaming run shows no migrations: %v", tab.Rows[1])
	}
}

func TestLevelKFixesCloseInCollateral(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	// With loud close-in attackers, host-weighted (level-k) sharing
	// must not be worse than plain per-port max-min for clients.
	during := func(d DefenseKind) float64 {
		cfg := DefaultTreeConfig()
		cfg.Topology.Leaves = 100
		cfg.NumAttackers = 25
		cfg.AttackRate = 0.5e6
		cfg.Placement = topology.Close
		cfg.Defense = d
		r, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanDuringAttack
	}
	plain := during(Pushback)
	levelk := during(PushbackLevelK)
	hbp := during(HBP)
	if levelk < plain-0.01 {
		t.Fatalf("level-k (%.3f) worse than plain pushback (%.3f)", levelk, plain)
	}
	if hbp < levelk+0.05 {
		t.Fatalf("HBP (%.3f) should clearly beat level-k (%.3f) — the paper's point", hbp, levelk)
	}
}

func TestExtLoadOrderingInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	tab, err := ExtLoad(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At every load HBP retains at least as much as no-defense (the
	// paper: "similar results were obtained with lower legitimate
	// loads").
	for _, row := range tab.Rows {
		hbp, err1 := strconv.ParseFloat(row[1], 64)
		none, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		if hbp < none {
			t.Fatalf("load %s: HBP (%v) below no-defense (%v)", row[0], hbp, none)
		}
	}
}

func TestExtLevelKTableQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	tab, err := ExtLevelK(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "levelk") {
		t.Fatal("table missing level-k column")
	}
}

func TestThresholdTradeoff(t *testing.T) {
	low, err := RunThreshold(context.Background(), 1, 10, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunThreshold(context.Background(), 50, 10, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if low.FalseActivations == 0 {
		t.Fatal("threshold 1 suppressed scanner noise; no trade-off to study")
	}
	if high.FalseActivations >= low.FalseActivations {
		t.Fatalf("raising the threshold did not cut false activations: %d -> %d",
			low.FalseActivations, high.FalseActivations)
	}
	if low.CaptureTime < 0 || high.CaptureTime < 0 {
		t.Fatalf("real attacker escaped: low=%v high=%v", low.CaptureTime, high.CaptureTime)
	}
	// A 50 pkt/s attacker crosses even threshold 50 within ~1 s, so
	// the capture penalty must be small.
	if high.CaptureTime > low.CaptureTime+5 {
		t.Fatalf("high threshold delayed capture too much: %.1f vs %.1f",
			high.CaptureTime, low.CaptureTime)
	}
}

func TestEq4ProgressiveScalesWithHops(t *testing.T) {
	run := func(h int) *ValidationResult {
		cfg := ValidationConfig{
			Hops: h, EpochLen: 10, HoneypotProb: 0.5,
			RatePPS: 0.5, Runs: 3, Seed: 9,
		}
		r, err := RunValidationProgressive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Captured != 3 {
			t.Fatalf("h=%d: captured %d/3", h, r.Captured)
		}
		return r
	}
	short := run(5)
	long := run(20)
	// Progressive capture time grows with distance in the low-rate
	// regime (Eq. 4), unlike basic's m/p bound.
	if long.MeanCT <= short.MeanCT {
		t.Fatalf("capture time did not grow with h: %0.1f (h=5) vs %0.1f (h=20)",
			short.MeanCT, long.MeanCT)
	}
	// Order-of-magnitude agreement with the model.
	for _, r := range []*ValidationResult{short, long} {
		if r.MeanCT > 3*r.Model.ECT || r.Model.ECT > 3*r.MeanCT {
			t.Fatalf("measured %.1f vs Eq.(4) %.1f: wrong order of magnitude", r.MeanCT, r.Model.ECT)
		}
		if !r.Model.Valid {
			t.Fatal("Eq.(4) condition should hold here")
		}
	}
}

func TestDeploymentBenefitMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	run := func(frac float64) (int, float64) {
		cfg := DefaultTreeConfig()
		cfg.Topology.Leaves = 60
		cfg.NumAttackers = 8
		cfg.AttackRate = 0.3e6
		cfg.DeployFraction = frac
		r, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return len(r.Captures), r.MeanDuringAttack
	}
	capLow, tputLow := run(0.25)
	capFull, tputFull := run(1.0)
	if capFull != 8 {
		t.Fatalf("full deployment captured %d/8", capFull)
	}
	if capLow >= capFull {
		t.Fatalf("partial deployment captured as many as full: %d vs %d", capLow, capFull)
	}
	if capLow == 0 {
		t.Fatal("25% deployment captured nothing; incremental benefit missing")
	}
	if tputFull < tputLow {
		t.Fatalf("more deployment, less throughput: %.3f vs %.3f", tputFull, tputLow)
	}
}

func TestOnOffEquationsAreBounds(t *testing.T) {
	for _, pt := range []struct{ ton, toff float64 }{
		{30, 5}, {12, 10}, {4, 3},
	} {
		measured, captured, model, err := RunOnOffValidation(context.Background(), pt.ton, pt.toff, 3, 11)
		if err != nil {
			t.Fatal(err)
		}
		if captured != 3 {
			t.Fatalf("ton=%v toff=%v: captured %d/3", pt.ton, pt.toff, captured)
		}
		if !model.Valid {
			t.Fatalf("ton=%v toff=%v: %s condition should hold", pt.ton, pt.toff, model.Eq)
		}
		// The closed forms are conservative expectations; measurements
		// must not exceed them by more than sampling noise.
		if measured > model.ECT*1.5 {
			t.Fatalf("ton=%v toff=%v: measured %.1f far above %s bound %.1f",
				pt.ton, pt.toff, measured, model.Eq, model.ECT)
		}
	}
}
