package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// ByzantineTreeConfig builds the capture-under-byzantine-faults
// scenario: the standard tree attack with n subverted mid-tree routers
// forging, replaying, amplifying and mark-spoofing control frames at
// the given tick rate for the whole attack window.
//
// hardened selects the arm: with it the defense runs the full
// adversarial-robustness layer — authenticated control plane
// (per-epoch MACs + anti-replay windows), default state budgets, and
// the stall watchdog — so hostile frames bounce off the MAC and any
// state the storm does displace is re-seeded. Without it the defense
// is the paper's implicit trusting model, where a single well-timed
// forged Cancel kills a capture in flight.
func ByzantineTreeConfig(base TreeConfig, nodes int, rate float64, hardened bool) TreeConfig {
	base.Defense = HBP
	base.Reliable = true
	base.ByzantineNodes = nodes
	base.ByzantineRate = rate
	base.EpochAuth = hardened
	base.Watchdog = hardened
	return base
}

// ExtByzantine is the capture-time-under-byzantine-faults experiment:
// sweep the number of subverted routers for both arms and report
// capture completeness, collateral damage (legitimate clients the
// defense was tricked into blocking), the security counters, and the
// defense-state high-water mark against its budget. The zero-byzantine
// hardened row is the fault-free baseline the 2x capture-time
// criterion is measured against (see EXPERIMENTS.md).
func ExtByzantine(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Ext — capture under byzantine routers: authenticated vs trusting control plane",
		Note:  "subverted routers forge/replay/amplify/mark-spoof control frames at 20 ticks/s over the attack window; HBP tree scenario, ack+lease plane; collateral = distinct legitimate clients blocked",
		Headers: []string{"byz routers", "plane", "captured", "collateral", "mean CT (s)", "injected",
			"auth rej", "replay rej", "admission rej", "evictions", "reseeds", "peak state", "budget"},
	}
	for _, nodes := range []int{0, 2, 4} {
		for _, hardened := range []bool{true, false} {
			if nodes == 0 && !hardened {
				continue // one fault-free baseline row is enough
			}
			cfg := ByzantineTreeConfig(scale.treeConfig(), nodes, 20, hardened)
			r, err := RunTree(cfg)
			if err != nil {
				return nil, err
			}
			plane := "trusting"
			if hardened {
				plane = "authenticated"
			}
			meanCT := "-"
			if len(r.CaptureTimes) > 0 {
				meanCT = fmt.Sprintf("%.1f", metrics.Mean(r.CaptureTimes))
			}
			t.AddRow(
				nodes,
				plane,
				fmt.Sprintf("%d/%d", r.AttackersCaptured, cfg.NumAttackers),
				r.CollateralBlocks,
				meanCT,
				r.ByzantineInjected,
				r.Sec.AuthRejects,
				r.Sec.ReplayRejects,
				r.Sec.AdmissionRejects,
				r.Sec.SessionEvictions,
				r.Sec.WatchdogReseeds,
				r.PeakState,
				r.StateBudget,
			)
		}
	}
	return t, nil
}
