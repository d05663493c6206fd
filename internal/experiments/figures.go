package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/topology"
)

// Scale shrinks the tree scenarios so tests and benchmarks finish
// quickly while cmd/figures can run at full size. Scale 1.0 is the
// paper-equivalent setting.
type Scale struct {
	// Leaves is the tree size (paper: 1000; default runner: 200).
	Leaves int
	// Duration/AttackEnd shrink run length proportionally when < 1.
	TimeFactor float64
	// Runs is the per-point repetition count for validation sweeps.
	Runs int
	// Ctx, when non-nil, bounds every simulation a figure generator
	// starts (see TreeConfig.Context): the generators build each engine
	// through newSim or newSharded, which install it. The figure
	// drivers set it from their signal context so a ^C aborts the
	// current run instead of waiting out a full sweep, and the scenario
	// service sets it so an attempt's deadline and cancel reach figure
	// cases.
	Ctx context.Context
}

// FullScale approximates the paper's setup.
func FullScale() Scale { return Scale{Leaves: 1000, TimeFactor: 1, Runs: 10} }

// QuickScale is small enough for unit tests and benchmarks.
func QuickScale() Scale { return Scale{Leaves: 60, TimeFactor: 1, Runs: 2} }

// DefaultScale balances fidelity and runtime for cmd/figures.
func DefaultScale() Scale { return Scale{Leaves: 200, TimeFactor: 1, Runs: 5} }

// runsAtLeast is the per-point repetition count, raised to n.
func (s Scale) runsAtLeast(n int) int { return max(s.Runs, n) }

func (s Scale) treeConfig() TreeConfig {
	cfg := DefaultTreeConfig()
	cfg.Topology.Leaves = s.Leaves
	if s.TimeFactor > 0 && s.TimeFactor != 1 {
		cfg.Duration *= s.TimeFactor
		cfg.AttackEnd *= s.TimeFactor
	}
	// The paper's 25 attackers, shrunk only when the tree is tiny; the
	// total attack volume (25 x 0.1 Mb/s) is preserved across scales
	// so reduced runs stay meaningful.
	cfg.NumAttackers = min(25, s.Leaves/3)
	cfg.AttackRate = 2.5e6 / float64(cfg.NumAttackers)
	cfg.Context = s.Ctx
	return cfg
}

// Fig5 regenerates the analytical comparison of Sec. 7.4: progressive
// E[CT] versus t_on for on-off attacks with t_off in {5, 10} s, the
// continuous-attack floor, and the Eq. (9) special case.
func Fig5() *Table {
	p := analysis.Fig5Params()
	tons := analysis.Fig5TonSweep(p)
	s5 := analysis.Fig5Series(p, 5, tons)
	s10 := analysis.Fig5Series(p, 10, tons)
	cont := analysis.ProgressiveContinuous(p)

	t := &Table{
		Title: "Fig. 5 — progressive back-propagation vs continuous and on-off attacks",
		Note: fmt.Sprintf("continuous attack E[CT]=%.2fs (Eq.4); special case Eq.9: toff=5 -> %.1fs, toff=10 -> %.1fs",
			cont.ECT,
			analysis.SpecialCaseOnOff(p, 5).ECT,
			analysis.SpecialCaseOnOff(p, 10).ECT),
		Headers: []string{"t_on(s)", "case", "E[CT] toff=5 (s)", "E[CT] toff=10 (s)", "continuous (s)"},
	}
	// strconv, not fmt: every fleet case renders this table.
	continuous := strconv.FormatFloat(cont.ECT, 'f', 2, 64)
	for i := range tons {
		t.AddRow(
			strconv.FormatFloat(tons[i], 'f', 1, 64),
			s10[i].Case.String(),
			strconv.FormatFloat(s5[i].OnOff.ECT, 'f', 1, 64),
			strconv.FormatFloat(s10[i].OnOff.ECT, 'f', 1, 64),
			continuous,
		)
	}
	return t
}

// Fig6 validates Eq. (3) against simulation: capture time vs honeypot
// probability p, epoch length m, and hop distance h (three panels).
func Fig6(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig. 6 — validation of Eq. (3): measured capture time vs model bound",
		Headers: []string{"panel", "param", "measured E[CT] (s)", "std (s)", "Eq.(3) bound (s)", "captured"},
	}
	add := func(panel string, param string, cfg ValidationConfig) error {
		cfg.Runs = scale.Runs
		cfg.Context = scale.Ctx
		r, err := RunValidation(cfg)
		if err != nil {
			return err
		}
		t.AddRow(panel, param,
			fmt.Sprintf("%.1f", r.MeanCT),
			fmt.Sprintf("%.1f", r.StdCT),
			fmt.Sprintf("%.1f", r.Model.ECT),
			fmt.Sprintf("%d/%d", r.Captured, cfg.Runs))
		return nil
	}
	// Panel 1: vary p; m=100 s, h=10, rate 0.1 Mb/s (25 pkt/s @500 B).
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		cfg := DefaultValidationConfig()
		cfg.HoneypotProb = p
		if err := add("vs p (m=100,h=10)", fmt.Sprintf("p=%.1f", p), cfg); err != nil {
			return nil, err
		}
	}
	// Panel 2: vary m; p=0.3, h=20.
	for _, m := range []float64{20, 50, 100, 200} {
		cfg := DefaultValidationConfig()
		cfg.EpochLen = m
		cfg.Hops = 20
		if err := add("vs m (p=0.3,h=20)", fmt.Sprintf("m=%.0f", m), cfg); err != nil {
			return nil, err
		}
	}
	// Panel 3: vary h; m=30 s, p=0.3.
	for _, h := range []int{5, 10, 20, 30} {
		cfg := DefaultValidationConfig()
		cfg.EpochLen = 30
		cfg.Hops = h
		if err := add("vs h (m=30,p=0.3)", fmt.Sprintf("h=%d", h), cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig7 regenerates the topology histograms: leaf hop counts and
// router degrees of the simulated tree.
func Fig7(scale Scale) *Table {
	p := topology.DefaultParams()
	p.Leaves = scale.Leaves
	tr := topology.NewTree(newSim(scale.Ctx), p)
	t := &Table{
		Title:   "Fig. 7 — hop count and node degree distributions of the simulated tree",
		Headers: []string{"metric", "value", "frequency"},
	}
	hop := tr.HopCountHistogram()
	for _, k := range sortedKeys(hop) {
		t.AddRow("hop-count", k, hop[k])
	}
	deg := tr.DegreeHistogram()
	for _, k := range sortedKeys(deg) {
		t.AddRow("node-degree", k, deg[k])
	}
	return t
}

// Fig8 regenerates the time plot of one run: client throughput (% of
// bottleneck) per second for the three schemes; attack between
// AttackStart and AttackEnd.
func Fig8(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	t := &Table{
		Title: "Fig. 8 — legitimate throughput over time (attack 5s..95s)",
		Note: fmt.Sprintf("%d clients, %d attackers at %.1f Mb/s each, bottleneck %.0f Mb/s",
			base.Topology.Leaves-base.NumAttackers, base.NumAttackers,
			base.AttackRate/1e6, base.Topology.Bottleneck.Bandwidth/1e6),
		Headers: []string{"time(s)", "hbp %", "pushback %", "no-defense %"},
	}
	cells, err := sweep(base, 1, paperDefenses, func(cfg *TreeConfig, row int) {})
	if err != nil {
		return nil, err
	}
	series := map[DefenseKind][]float64{}
	var times []float64
	for i, d := range paperDefenses {
		r := cells[0][i]
		series[d] = r.Throughput.Values
		if times == nil {
			times = r.Throughput.Times
		}
	}
	for i := range times {
		get := func(d DefenseKind) string {
			if i < len(series[d]) {
				return fmt.Sprintf("%.1f", 100*series[d][i])
			}
			return "-"
		}
		t.AddRow(fmt.Sprintf("%.0f", times[i]), get(HBP), get(Pushback), get(NoDefense))
	}
	return t, nil
}

// Fig9 prints the simulation-parameter table.
func Fig9(scale Scale) *Table {
	cfg := scale.treeConfig()
	t := &Table{
		Title:   "Fig. 9 — simulation parameters",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("leaf nodes", cfg.Topology.Leaves)
	t.AddRow("servers (N)", cfg.Pool.N)
	t.AddRow("active servers (k)", cfg.Pool.K)
	t.AddRow("honeypot probability p", fmt.Sprintf("%.2f", cfg.Pool.HoneypotProbability()))
	t.AddRow("epoch length m (s)", cfg.Pool.EpochLen)
	t.AddRow("bottleneck (Mb/s)", cfg.Topology.Bottleneck.Bandwidth/1e6)
	t.AddRow("core link (Mb/s)", cfg.Topology.CoreLink.Bandwidth/1e6)
	t.AddRow("leaf link (Mb/s)", cfg.Topology.LeafLink.Bandwidth/1e6)
	t.AddRow("server link (Mb/s)", cfg.Topology.ServerLink.Bandwidth/1e6)
	t.AddRow("legitimate load (fraction of bottleneck)", cfg.LegitFraction)
	t.AddRow("attackers (default)", cfg.NumAttackers)
	t.AddRow("attack rate per host (Mb/s)", cfg.AttackRate/1e6)
	t.AddRow("attacker locations", "close / even / far")
	t.AddRow("run length (s)", cfg.Duration)
	t.AddRow("attack window (s)", fmt.Sprintf("%.0f..%.0f", cfg.AttackStart, cfg.AttackEnd))
	t.AddRow("packet size (B)", cfg.PacketSize)
	return t
}

// paperDefenses are the three schemes of the paper's Sec. 8 figures.
var paperDefenses = []DefenseKind{HBP, Pushback, NoDefense}

// duringAttackPct is the cell of Figs. 10–12: client throughput during
// the attack, in percent of the bottleneck.
func duringAttackPct(r *TreeResult) float64 { return 100 * r.MeanDuringAttack }

// defenseSweep fills t with one row per label and one cell per defense:
// set applies row's setting to the base scenario, and cell reduces each
// run to the number printed.
func defenseSweep(t *Table, base TreeConfig, labels []string, defenses []DefenseKind,
	set func(cfg *TreeConfig, row int), cell func(*TreeResult) float64) (*Table, error) {
	cells, err := sweep(base, len(labels), defenses, set)
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		row := []string{label}
		for _, r := range cells[i] {
			row = append(row, fmt.Sprintf("%.1f", cell(r)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// placementSweep is defenseSweep over attacker placements, reporting
// throughput during the attack.
func placementSweep(t *Table, base TreeConfig, placements []topology.Placement, defenses []DefenseKind) (*Table, error) {
	labels := make([]string, len(placements))
	for i, pl := range placements {
		labels[i] = pl.String()
	}
	return defenseSweep(t, base, labels, defenses,
		func(cfg *TreeConfig, row int) { cfg.Placement = placements[row] }, duringAttackPct)
}

// Fig10 sweeps attacker placement (close / even / far) for the three
// schemes, reporting mean legitimate throughput during the attack.
func Fig10(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig. 10 — effect of attacker location (client throughput % during attack)",
		Headers: []string{"placement", "hbp %", "pushback %", "no-defense %"},
	}
	return placementSweep(t, scale.treeConfig(),
		[]topology.Placement{topology.Far, topology.Even, topology.Close}, paperDefenses)
}

// Fig11 sweeps the number of (evenly placed) attackers.
func Fig11(scale Scale) (*Table, error) {
	base := scale.treeConfig()
	// Per the paper this sweep uses a lower per-host rate so the
	// total attack volume scales with the count.
	base.AttackRate = 0.05e6
	t := &Table{
		Title:   "Fig. 11 — effect of number of attackers (client throughput % during attack)",
		Headers: []string{"attackers", "hbp %", "pushback %", "no-defense %"},
	}
	var counts []int
	var labels []string
	for _, n := range []int{scale.Leaves / 16, scale.Leaves / 8, scale.Leaves / 4, scale.Leaves / 2} {
		if n >= 1 {
			counts = append(counts, n)
			labels = append(labels, fmt.Sprint(n))
		}
	}
	return defenseSweep(t, base, labels, paperDefenses,
		func(cfg *TreeConfig, row int) { cfg.NumAttackers = counts[row] }, duringAttackPct)
}

// Fig12 sweeps the per-attacker rate with evenly placed attackers.
func Fig12(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig. 12 — effect of per-attacker rate (client throughput % during attack)",
		Headers: []string{"rate (Mb/s)", "hbp %", "pushback %", "no-defense %"},
	}
	rates := []float64{0.025e6, 0.05e6, 0.1e6, 0.2e6, 0.5e6}
	labels := make([]string, len(rates))
	for i, rate := range rates {
		labels[i] = fmt.Sprintf("%.3f", rate/1e6)
	}
	return defenseSweep(t, scale.treeConfig(), labels, paperDefenses,
		func(cfg *TreeConfig, row int) { cfg.AttackRate = rates[row] }, duringAttackPct)
}

func sortedKeys(m map[int]int) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
