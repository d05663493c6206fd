// Package scenario is the resilient scenario service: a supervised,
// cancellable run lifecycle behind a declarative suite/case API.
//
// A suite is a named batch of cases; a case is one simulation to run —
// either a tree scenario (a TreeSpec, the same knobs as cmd/hbpsim's
// flags) or a whole figure regeneration (a FigureSpec naming a
// cmd/figures generator). One Coordinator owns the run lifecycle for
// both daemons: a bounded admission queue, leases to workers,
// requeue with jittered exponential backoff, first-completion-wins
// dedup, a bounded run history and a journal replayed on restart.
// Runner puts in-process executors behind it (cmd/hbpsimd);
// internal/fleet serves it to remote workers (hbpsimd -workers 0). Every
// attempt runs under SupervisedAttempt, which enforces wall-clock and
// simulated-event deadlines, isolates panics and audits teardown for
// resource leaks.
//
// The package is a wall-clock supervisor *around* the deterministic
// simulator, never part of it: a healthy case produces a result
// fingerprint bit-identical to running the same config solo, no matter
// how much chaos its neighbors are under (the chaos soak in
// soak_test.go holds this as an invariant).
package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/topology"
)

// SuiteSpec is a declarative batch of cases, the unit of submission
// for batch mode (hbpsimd -suite) and the POST /suites payload.
type SuiteSpec struct {
	// Name identifies the suite in journals and artifacts.
	Name string `json:"name"`
	// Cases are executed concurrently under the runner's worker pool.
	Cases []CaseSpec `json:"cases"`
}

// CaseSpec is one simulation to run plus its supervision envelope.
type CaseSpec struct {
	// Name identifies the case within its suite.
	Name string `json:"name"`
	// Kind selects the executor: "tree" (default when Tree is set) or
	// "figure".
	Kind string `json:"kind,omitempty"`
	// Tree configures a single tree-scenario run (Kind "tree").
	Tree *TreeSpec `json:"tree,omitempty"`
	// Figure configures a figure regeneration (Kind "figure").
	Figure *FigureSpec `json:"figure,omitempty"`

	// WallDeadlineSec is the wall-clock deadline per attempt; 0 uses
	// the runner default.
	WallDeadlineSec float64 `json:"wall_deadline_sec,omitempty"`
	// MaxEvents is the simulated-event deadline per attempt of a tree
	// case; 0 uses the runner default. A figure case may not set it.
	MaxEvents uint64 `json:"max_events,omitempty"`
	// MaxAttempts caps retries of infrastructure faults; 0 uses the
	// runner default. Panics, deadlines and cancellations are never
	// retried.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// InfraCrashProb injects harness mortality: each attempt
	// independently dies with this probability before producing a
	// result (see faults.InfraCrash). The chaos soak uses it to
	// exercise the retry path deterministically.
	InfraCrashProb float64 `json:"infra_crash_prob,omitempty"`
	// PanicForTest makes the executor panic — the supervisor's
	// panic-isolation path is not reachable from valid specs, so the
	// in-process chaos tests need an explicit trapdoor. It is not part
	// of the wire spec: no decoded document sets it.
	PanicForTest bool `json:"-"`
}

// TreeSpec mirrors cmd/hbpsim's flag set as a JSON document. Zero
// values mean "the default", exactly as an omitted flag does. A tree
// run always uses the sequential engine. Decoding ignores fields the
// spec no longer has, so an older document that still names an engine
// width runs unchanged, with the same fingerprint.
type TreeSpec struct {
	Defense     string  `json:"defense,omitempty"`   // hbp, pushback, pushback-levelk, stackpi, none
	Leaves      int     `json:"leaves,omitempty"`    // default 200
	Attackers   int     `json:"attackers,omitempty"` // default 25
	RateMbps    float64 `json:"rate_mbps,omitempty"` // default 0.1
	Placement   string  `json:"placement,omitempty"` // even, close, far
	Progressive bool    `json:"progressive,omitempty"`
	OnOff       string  `json:"onoff,omitempty"` // "ton,toff" seconds
	RED         bool    `json:"red,omitempty"`
	DeployFrac  float64 `json:"deploy,omitempty"`   // default 1
	DurationSec float64 `json:"duration,omitempty"` // default 100
	EpochSec    float64 `json:"epoch,omitempty"`    // default 10
	Seed        int64   `json:"seed,omitempty"`     // default 1
	Reliable    bool    `json:"reliable,omitempty"`
	LossProb    float64 `json:"loss,omitempty"`
	CrashRate   float64 `json:"crash_rate,omitempty"` // crashes per 100 s
	Auth        bool    `json:"auth,omitempty"`
	Watchdog    bool    `json:"watchdog,omitempty"`
	Byzantine   int     `json:"byzantine,omitempty"`
	ByzRate     float64 `json:"byz_rate,omitempty"`
}

// FigureSpec names one cmd/figures generator and a scale.
type FigureSpec struct {
	// Fig is a key of experiments.Figures(): "5".."12" or an
	// extension id.
	Fig string `json:"fig"`
	// Scale is quick, default or full (default "default").
	Scale string `json:"scale,omitempty"`
}

// Validate reports spec errors a submission must reject up front.
func (s *SuiteSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: suite has no name")
	}
	if len(s.Cases) == 0 {
		return fmt.Errorf("scenario: suite %q has no cases", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Cases {
		c := &s.Cases[i]
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario: suite %q case %d: %w", s.Name, i, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: suite %q: duplicate case name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Validate reports case-spec errors.
func (c *CaseSpec) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("case has no name")
	}
	switch c.EffectiveKind() {
	case "tree":
		if c.Figure != nil {
			return fmt.Errorf("case %q: kind tree with a figure spec", c.Name)
		}
		spec := TreeSpec{}
		if c.Tree != nil {
			spec = *c.Tree
		}
		if _, err := spec.Config(); err != nil {
			return fmt.Errorf("case %q: %w", c.Name, err)
		}
	case "figure":
		if c.Figure == nil {
			return fmt.Errorf("case %q: kind figure without a figure spec", c.Name)
		}
		if _, ok := experiments.Figures()[c.Figure.Fig]; !ok {
			return fmt.Errorf("case %q: unknown figure %q", c.Name, c.Figure.Fig)
		}
		if _, err := figureScale(c.Figure.Scale); err != nil {
			return fmt.Errorf("case %q: %w", c.Name, err)
		}
		if c.MaxEvents != 0 {
			return fmt.Errorf("case %q: max_events applies to tree cases only", c.Name)
		}
	default:
		return fmt.Errorf("case %q: unknown kind %q", c.Name, c.Kind)
	}
	if c.InfraCrashProb < 0 || c.InfraCrashProb >= 1 {
		return fmt.Errorf("case %q: infra crash probability %v out of [0,1)", c.Name, c.InfraCrashProb)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("case %q: negative max attempts", c.Name)
	}
	return nil
}

// EffectiveKind resolves the executor kind, defaulting by which spec
// is present ("tree" when neither is).
func (c *CaseSpec) EffectiveKind() string {
	if c.Kind != "" {
		return c.Kind
	}
	if c.Figure != nil {
		return "figure"
	}
	return "tree"
}

// WallDeadline returns the per-attempt wall deadline, falling back to
// def.
func (c *CaseSpec) WallDeadline(def time.Duration) time.Duration {
	if c.WallDeadlineSec > 0 {
		return time.Duration(c.WallDeadlineSec * float64(time.Second))
	}
	return def
}

// BaseSeed resolves the case's base scenario seed: the tree spec's
// seed when it sets one, else 1. Attempt seeds (AttemptSeed) and retry
// backoff jitter derive from it on every supervisor.
func (c *CaseSpec) BaseSeed() int64 {
	if c.Tree != nil && c.Tree.Seed != 0 {
		return c.Tree.Seed
	}
	return 1
}

// Config translates the spec into a validated experiments.TreeConfig,
// the exact mapping cmd/hbpsim applies to its flags.
func (t TreeSpec) Config() (experiments.TreeConfig, error) {
	cfg := experiments.DefaultTreeConfig()
	if t.Leaves > 0 {
		cfg.Topology.Leaves = t.Leaves
	}
	if t.Attackers > 0 {
		cfg.NumAttackers = t.Attackers
	}
	if t.RateMbps > 0 {
		cfg.AttackRate = t.RateMbps * 1e6
	}
	if t.DurationSec > 0 {
		cfg.Duration = t.DurationSec
		if t.DurationSec < cfg.AttackEnd {
			cfg.AttackEnd = t.DurationSec * 0.95
		}
	}
	if t.EpochSec > 0 {
		cfg.Pool.EpochLen = t.EpochSec
	}
	cfg.Progressive = t.Progressive
	cfg.REDQueues = t.RED
	if t.DeployFrac > 0 {
		cfg.DeployFraction = t.DeployFrac
	}
	if t.Seed != 0 {
		cfg.Seed = t.Seed
	}
	cfg.Reliable = t.Reliable
	if t.LossProb > 0 {
		cfg.Faults = experiments.ControlLossPlan(cfg.Seed, t.LossProb)
	}
	if t.CrashRate > 0 {
		cfg.FaultCrashes = int(t.CrashRate * cfg.Duration / 100)
		if cfg.FaultCrashes == 0 {
			cfg.FaultCrashes = 1
		}
	}
	cfg.EpochAuth = t.Auth
	cfg.Watchdog = t.Watchdog
	cfg.ByzantineNodes = t.Byzantine
	if t.ByzRate > 0 {
		cfg.ByzantineRate = t.ByzRate
	}
	switch t.Defense {
	case "", "hbp":
		cfg.Defense = experiments.HBP
	case "pushback":
		cfg.Defense = experiments.Pushback
	case "pushback-levelk":
		cfg.Defense = experiments.PushbackLevelK
	case "stackpi":
		cfg.Defense = experiments.StackPiFilter
	case "none":
		cfg.Defense = experiments.NoDefense
	default:
		return cfg, fmt.Errorf("unknown defense %q", t.Defense)
	}
	switch t.Placement {
	case "", "even":
		cfg.Placement = topology.Even
	case "close":
		cfg.Placement = topology.Close
	case "far":
		cfg.Placement = topology.Far
	default:
		return cfg, fmt.Errorf("unknown placement %q", t.Placement)
	}
	if t.OnOff != "" {
		var ton, toff float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(t.OnOff, ",", " "), "%f %f", &ton, &toff); err != nil {
			return cfg, fmt.Errorf("bad onoff %q: %v", t.OnOff, err)
		}
		cfg.OnOff = &experiments.OnOffSpec{Ton: ton, Toff: toff}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func figureScale(name string) (experiments.Scale, error) {
	switch name {
	case "quick":
		return experiments.QuickScale(), nil
	case "", "default":
		return experiments.DefaultScale(), nil
	case "full":
		return experiments.FullScale(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
	}
}
