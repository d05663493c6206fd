package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/topology"
)

// quickTree returns a small, fast scenario for behavioural tests.
func quickTree() TreeConfig {
	cfg := DefaultTreeConfig()
	cfg.Topology.Leaves = 60
	cfg.NumAttackers = 12
	// A stronger per-host rate keeps the aggregate attack meaningful
	// at this reduced scale (12 x 0.4 = 4.8 Mb/s of excess).
	cfg.AttackRate = 0.4e6
	return cfg
}

func TestTreeConfigValidate(t *testing.T) {
	if err := DefaultTreeConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	onoff := func(ton, toff float64) func(*TreeConfig) {
		return func(c *TreeConfig) { c.OnOff = &OnOffSpec{Ton: ton, Toff: toff} }
	}
	for _, tc := range []struct {
		name string
		mut  func(*TreeConfig)
	}{
		{"attackers == leaves", func(c *TreeConfig) { c.NumAttackers = c.Topology.Leaves }},
		{"pool/topology server mismatch", func(c *TreeConfig) { c.Pool.N = 7 }},
		{"inverted attack window", func(c *TreeConfig) { c.AttackStart, c.AttackEnd = 90, 50 }},
		// traffic.OnOff would panic on each of these at attack start.
		{"on-off 0,0", onoff(0, 0)},
		{"on-off -1,5", onoff(-1, 5)},
		{"on-off 5,-1", onoff(5, -1)},
		{"on-off NaN", onoff(math.NaN(), 1)},
	} {
		bad := DefaultTreeConfig()
		tc.mut(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	ok := DefaultTreeConfig()
	onoff(0.5, 0)(&ok)
	if err := ok.Validate(); err != nil {
		t.Fatalf("on-off 0.5,0 rejected: %v", err)
	}
}

func TestHBPBeatsBaselines(t *testing.T) {
	// The headline result (Fig. 8): under attack HBP sustains
	// near-pre-attack throughput while no-defense stays degraded.
	results := map[DefenseKind]*TreeResult{}
	for _, d := range []DefenseKind{HBP, NoDefense} {
		cfg := quickTree()
		cfg.Defense = d
		r, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[d] = r
	}
	h, n := results[HBP], results[NoDefense]
	if h.MeanDuringAttack < n.MeanDuringAttack+0.05 {
		t.Fatalf("HBP (%.2f) not clearly above no-defense (%.2f) during attack",
			h.MeanDuringAttack, n.MeanDuringAttack)
	}
	if len(h.Captures) != quickTree().NumAttackers {
		t.Fatalf("HBP captured %d of %d attackers", len(h.Captures), quickTree().NumAttackers)
	}
	if len(n.Captures) != 0 {
		t.Fatal("no-defense run reported captures")
	}
	// HBP recovery: post-capture throughput approaches the pre-attack
	// level (the Fig. 8 recovery).
	late := h.Throughput.MeanBetween(40, 90)
	if late < 0.8*h.MeanBefore {
		t.Fatalf("HBP did not recover: late=%.2f before=%.2f", late, h.MeanBefore)
	}
	// All capture times are positive and within the attack window.
	for _, ct := range h.CaptureTimes {
		if ct < 0 || ct > 90 {
			t.Fatalf("capture time %v out of range", ct)
		}
	}
}

func TestPushbackCollateralOrdering(t *testing.T) {
	// Fig. 10's mechanism at reduced scale: pushback hurts legitimate
	// traffic more as attackers get closer.
	res := map[topology.Placement]float64{}
	for _, pl := range []topology.Placement{topology.Far, topology.Close} {
		cfg := quickTree()
		cfg.NumAttackers = 15
		cfg.Defense = Pushback
		cfg.Placement = pl
		r, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[pl] = r.MeanDuringAttack
	}
	if res[topology.Close] > res[topology.Far] {
		t.Fatalf("pushback: close (%.3f) should not beat far (%.3f)",
			res[topology.Close], res[topology.Far])
	}
}

func TestValidationMatchesModel(t *testing.T) {
	cfg := DefaultValidationConfig()
	cfg.Hops = 6
	cfg.EpochLen = 20
	cfg.HoneypotProb = 0.5
	cfg.Runs = 6
	r, err := RunValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Captured != cfg.Runs {
		t.Fatalf("captured %d/%d runs", r.Captured, cfg.Runs)
	}
	// Eq. (3) is a conservative upper bound in expectation; with few
	// runs allow slack but the measurement must be the right order of
	// magnitude: between one epoch and 3x the bound.
	if r.MeanCT < cfg.EpochLen*0.0 || r.MeanCT > 3*r.Model.ECT {
		t.Fatalf("measured %.1f s vs model %.1f s: wrong order of magnitude", r.MeanCT, r.Model.ECT)
	}
	if !r.Model.Valid {
		t.Fatal("model condition should hold for this setting")
	}
}

func TestValidationCaptureTimeScalesWithP(t *testing.T) {
	// Higher honeypot probability -> faster capture (Fig. 6, panel 1).
	ctAt := func(p float64) float64 {
		cfg := DefaultValidationConfig()
		cfg.Hops = 5
		cfg.EpochLen = 20
		cfg.HoneypotProb = p
		cfg.Runs = 6
		r, err := RunValidation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Captured == 0 {
			t.Fatalf("p=%v: never captured", p)
		}
		return r.MeanCT
	}
	low, high := ctAt(0.2), ctAt(0.8)
	if high > low {
		t.Fatalf("capture slower at p=0.8 (%.1f) than p=0.2 (%.1f)", high, low)
	}
}

// TestValidationRejectsBadConfig: both validation entry points refuse a
// config that cannot produce a measurement, instead of returning a
// zero mean and no error.
func TestValidationRejectsBadConfig(t *testing.T) {
	entries := map[string]func(ValidationConfig) (*ValidationResult, error){
		"basic":       RunValidation,
		"progressive": RunValidationProgressive,
	}
	bad := map[string]func(*ValidationConfig){
		"no hops":       func(c *ValidationConfig) { c.Hops = 0 },
		"zero epoch":    func(c *ValidationConfig) { c.EpochLen = 0 },
		"negative rate": func(c *ValidationConfig) { c.RatePPS = -1 },
		"no runs":       func(c *ValidationConfig) { c.Runs = 0 },
	}
	for entry, run := range entries {
		for name, mutate := range bad {
			cfg := DefaultValidationConfig()
			mutate(&cfg)
			if res, err := run(cfg); err == nil {
				t.Errorf("%s, %s: accepted (result %+v)", entry, name, res)
			}
		}
	}
}

func TestFig5Table(t *testing.T) {
	tab := Fig5()
	if len(tab.Rows) < 20 {
		t.Fatalf("Fig5 rows = %d", len(tab.Rows))
	}
	out := tab.Render()
	if !strings.Contains(out, "Fig. 5") || !strings.Contains(out, "t_on") {
		t.Fatal("Fig5 render missing headers")
	}
	if csv := tab.CSV(); !strings.Contains(csv, "\n") {
		t.Fatal("CSV empty")
	}
}

func TestFig7Table(t *testing.T) {
	tab := Fig7(QuickScale())
	foundHop, foundDeg := false, false
	for _, row := range tab.Rows {
		switch row[0] {
		case "hop-count":
			foundHop = true
		case "node-degree":
			foundDeg = true
		}
	}
	if !foundHop || !foundDeg {
		t.Fatal("Fig7 missing a histogram")
	}
}

func TestFig9Table(t *testing.T) {
	tab := Fig9(QuickScale())
	if len(tab.Rows) < 10 {
		t.Fatalf("Fig9 rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "epoch length") {
		t.Fatal("Fig9 missing parameters")
	}
}

func TestFig10TableQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweep in -short mode")
	}
	tab, err := Fig10(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig10 rows = %d, want 3 placements", len(tab.Rows))
	}
	if tab.Rows[0][0] != "far" || tab.Rows[2][0] != "close" {
		t.Fatalf("placement order wrong: %v", tab.Rows)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}, Note: "n"}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "2.500", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
}

func TestDefenseKindString(t *testing.T) {
	for _, d := range []DefenseKind{NoDefense, Pushback, HBP} {
		if d.String() == "" {
			t.Fatal("empty defense name")
		}
	}
}

// treeFingerprint renders the fields of a tree run that hbpbench's
// tree-defense workload fingerprints, in the same format.
func treeFingerprint(r *TreeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d drops=%d ctrl=%d peak=%d during=%.12g caps=",
		r.EventsFired, r.QueueDrops, r.CtrlMessages, r.PeakState, r.MeanDuringAttack)
	for _, c := range r.Captures {
		fmt.Fprintf(&b, "%.9f:%d>%d,", c.Time, c.Router, c.Attacker)
	}
	return b.String()
}

// TestTreeGoldenFingerprint pins the paper's own scenario — the
// victim tree at DefaultTreeConfig — to recorded values. The tree runs
// on the sequential engine only, so no across-widths comparison
// covers it: a change that reorders its events (a queue that breaks a
// tie differently, a handler that schedules in another order) would
// otherwise move every tree figure unnoticed outside the CI fixture.
func TestTreeGoldenFingerprint(t *testing.T) {
	for _, want := range []struct {
		seed     int64
		events   uint64
		captures int
		digest   string
	}{
		{1, 2398337, 25, "4a38e0076dc387524890fd51e80617d6c54e0842fd172e0644976f0aa99b3f2f"},
		{7, 2427512, 25, "b62fac543a16166ee8bef99560902a52466bfab144d0d004bbbc101aaa687480"},
	} {
		cfg := DefaultTreeConfig()
		cfg.Seed = want.seed
		res, err := RunTree(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(treeFingerprint(res))))
		if res.EventsFired != want.events || len(res.Captures) != want.captures || digest != want.digest {
			t.Errorf("seed %d: %d events, %d captures, sha256 %s; want %d, %d, %s",
				want.seed, res.EventsFired, len(res.Captures), digest, want.events, want.captures, want.digest)
		}
	}
}
