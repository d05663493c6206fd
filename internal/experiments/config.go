// Package experiments wires the substrates together into the paper's
// evaluation scenarios and provides one runner per reproduced table or
// figure (see DESIGN.md's experiment index). Each runner returns
// structured results that cmd/figures renders as text tables and the
// benchmark harness exercises at reduced scale.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/roaming"
	"repro/internal/topology"
)

// DefenseKind selects the defense under test.
type DefenseKind int

const (
	// NoDefense is the undefended baseline.
	NoDefense DefenseKind = iota
	// Pushback is the ACC/Pushback baseline (Sec. 8's comparison).
	Pushback
	// HBP is honeypot back-propagation (plain Pushback framework
	// augmented with honeypot signatures, ACC disabled — Sec. 8.1).
	HBP
	// PushbackLevelK is Pushback with level-k (host-count weighted)
	// max-min sharing, the mitigation comparator of Sec. 2 that fixes
	// plain Pushback's per-port blindness but remains ineffective
	// against highly dispersed attackers.
	PushbackLevelK
	// StackPiFilter is victim-side filtering on StackPi path marks,
	// trained online by the roaming-honeypot signature (packets
	// received during honeypot windows). It drops attack traffic only
	// at the servers, so the bottleneck still carries it — and mark
	// collisions drop legitimate traffic as attackers disperse
	// (Sec. 2's critique).
	StackPiFilter
)

func (d DefenseKind) String() string {
	switch d {
	case NoDefense:
		return "no-defense"
	case Pushback:
		return "pushback"
	case HBP:
		return "honeypot-backprop"
	case PushbackLevelK:
		return "pushback-levelk"
	case StackPiFilter:
		return "stackpi-filter"
	default:
		return fmt.Sprintf("DefenseKind(%d)", int(d))
	}
}

// OnOffSpec configures on-off attackers; nil means continuous.
type OnOffSpec struct {
	Ton, Toff float64
}

// valid reports whether the attackers can run this timing: a positive
// burst and a non-negative silence, both finite. NaN fails every
// comparison, so it is rejected too.
func (o OnOffSpec) valid() bool {
	return o.Ton > 0 && o.Toff >= 0 && !math.IsInf(o.Ton, 1) && !math.IsInf(o.Toff, 1)
}

// TreeConfig is a full tree-scenario specification (Figs. 8, 10, 11,
// 12). A tree scenario runs on the sequential engine: its defense
// couples every router, so the model cannot be cut across shards.
type TreeConfig struct {
	// Topology generates the tree (leaves, link classes, seed).
	Topology topology.Params
	// Pool is the roaming-honeypots schedule (N must match
	// Topology.Servers).
	Pool roaming.Config
	// Defense selects the scheme under test.
	Defense DefenseKind
	// Progressive enables progressive back-propagation (HBP only).
	Progressive bool
	// REDQueues switches every router egress queue from drop-tail to
	// RED (the ns-2 Pushback setup runs over RED gateways).
	REDQueues bool
	// TraceCap, when non-zero, attaches a structured defense event
	// log (internal/trace) bounded to that many events (HBP only).
	TraceCap int
	// DeployFraction is the fraction of (ISP-granularity) ASes that
	// deploy HBP; the rest relay piggybacked announcements only. The
	// victim's own network always deploys. 0 or 1 means full
	// deployment.
	DeployFraction float64
	// Reliable enables the fault-tolerant control plane (HBP only):
	// acked, retransmitted control messages and lease-based sessions.
	Reliable bool
	// SessionLifetime overrides the HBP router-session lease in
	// seconds; 0 keeps the default (two epochs), negative disables
	// expiry entirely — the paper's idealized teardown-by-cancel-only
	// model.
	SessionLifetime float64
	// Faults, when non-nil and active, is injected into the run:
	// per-link loss, link outages, and router crash/restarts. Crashes
	// wipe the router's HBP sessions; restarts re-register a clean
	// agent.
	Faults *faults.Plan
	// FaultCrashes adds that many seeded random router crash/restart
	// cycles inside the attack window. They are drawn in RunTree (the
	// router IDs are topology-dependent) and merged into Faults.
	FaultCrashes int
	// FaultRestartAfter is the crash downtime in seconds (default 5).
	FaultRestartAfter float64
	// EpochAuth enables HBP's authenticated control plane: per-epoch
	// MACs on every control message (derived from a dedicated control
	// hash chain), anti-replay windows, and source-mark validation.
	EpochAuth bool
	// Watchdog enables HBP's server-side stall detector: when the
	// honeypot keeps drawing attack traffic but captures stop, the
	// session tree is re-seeded from the progressive frontier.
	Watchdog bool
	// Budget caps HBP's attacker-growable state tables (session
	// tables, dedup sets, pending transfers). Zero fields fall back to
	// the core defaults — defense state is always bounded.
	Budget core.Budget
	// ByzantineNodes subverts that many mid-tree routers (HBP only):
	// for the attack window they forge, replay, amplify and mark-spoof
	// control frames against the defense. The victims are drawn
	// deterministically in RunTree from the scenario seed.
	ByzantineNodes int
	// ByzantineRate is each subverted node's misbehavior tick rate in
	// events/s (default 2).
	ByzantineRate float64

	// NumAttackers of the leaves are attack hosts; the rest are
	// legitimate clients.
	NumAttackers int
	// Placement positions the attackers (Sec. 8.4.1).
	Placement topology.Placement
	// AttackRate is the per-attacker rate in bits/s.
	AttackRate float64
	// OnOff, when non-nil, makes attackers burst instead of flooding.
	OnOff *OnOffSpec

	// LegitFraction is the total legitimate load as a fraction of the
	// bottleneck capacity (the paper keeps it at ~0.9).
	LegitFraction float64
	// PacketSize is the data packet size in bytes for all sources.
	PacketSize int

	// Duration, AttackStart and AttackEnd shape the run (the paper:
	// 100 s runs, attack from 5 s to 95 s).
	Duration    float64
	AttackStart float64
	AttackEnd   float64

	// Seed drives attacker target choice, spoofing, client jitter.
	Seed int64

	// Context, when non-nil, installs a cooperative cancellation
	// checkpoint in the run: the simulator polls Context.Err at
	// event-batch boundaries and RunTree returns a wrapped
	// context.Canceled / DeadlineExceeded instead of running to
	// completion. The checkpoint never perturbs event order, so an
	// uncancelled run is bit-identical with or without a context. The
	// scenario service sets it on every supervised run; nil keeps the
	// historical run-to-completion behavior.
	Context context.Context `json:"-"`
	// EventLimit, when non-zero, is the simulated-event deadline: the
	// run aborts with des.ErrEventLimit after that many dispatched
	// events. It is the guard against pathological self-rescheduling
	// scenarios in a long-lived service, complementing the wall-clock
	// deadline the Context carries.
	EventLimit uint64
}

// DefaultTreeConfig returns the Fig. 9-style baseline scenario:
// 5 servers (k = 3) behind a 10 Mb/s bottleneck, 10 s epochs, 100 s
// runs with the attack between 5 s and 95 s, 25 evenly placed
// attackers at 0.1 Mb/s, and clients filling 90% of the bottleneck.
func DefaultTreeConfig() TreeConfig {
	topo := topology.DefaultParams()
	return TreeConfig{
		Topology: topo,
		Pool: roaming.Config{
			N: topo.Servers, K: 3, EpochLen: 10, Guard: 0.3,
			Epochs: 64, ChainSeed: []byte("tree-scenario"),
		},
		Defense:       HBP,
		NumAttackers:  25,
		Placement:     topology.Even,
		AttackRate:    0.1e6,
		LegitFraction: 0.9,
		PacketSize:    500,
		Duration:      100,
		AttackStart:   5,
		AttackEnd:     95,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c TreeConfig) Validate() error {
	timing := checkTiming(c.Duration, c.AttackStart, c.AttackEnd)
	switch {
	case c.NumAttackers < 0 || c.NumAttackers >= c.Topology.Leaves:
		return fmt.Errorf("experiments: %d attackers among %d leaves", c.NumAttackers, c.Topology.Leaves)
	case c.Pool.N != c.Topology.Servers:
		return fmt.Errorf("experiments: pool N=%d but topology has %d servers", c.Pool.N, c.Topology.Servers)
	case c.AttackRate <= 0 && c.NumAttackers > 0:
		return fmt.Errorf("experiments: non-positive attack rate")
	case c.LegitFraction <= 0 || c.LegitFraction > 1.5:
		return fmt.Errorf("experiments: legit fraction %v out of range", c.LegitFraction)
	case c.PacketSize <= 0:
		return fmt.Errorf("experiments: non-positive packet size")
	case timing != nil:
		return timing
	case c.Faults != nil && (c.Faults.Loss.Prob < 0 || c.Faults.Loss.Prob >= 1):
		return fmt.Errorf("experiments: fault loss probability %v out of [0,1)", c.Faults.Loss.Prob)
	case c.OnOff != nil && !c.OnOff.valid():
		return fmt.Errorf("experiments: on-off timing (%v, %v) needs a positive Ton and a non-negative Toff, both finite", c.OnOff.Ton, c.OnOff.Toff)
	}
	return c.Pool.Validate()
}

// checkTiming is the run-timing rule of every scenario config: a
// positive duration holding a non-empty attack window.
func checkTiming(duration, attackStart, attackEnd float64) error {
	if duration <= 0 || attackStart < 0 || attackEnd > duration || attackStart >= attackEnd {
		return fmt.Errorf("experiments: bad run timing (%v, %v, %v)", duration, attackStart, attackEnd)
	}
	return nil
}
