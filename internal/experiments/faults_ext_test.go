package experiments

import (
	"math"
	"testing"
)

// faultQuickTree is the acceptance scenario: the quick tree attack at
// its standard window under bursty control-only loss. Because the
// Gilbert–Elliott chain runs over the control-packet sequence, a bad
// period persists until control traffic actually crosses the link —
// later honeypot epochs heal lost Requests, but nothing except a lease
// heals a lost Cancel, which is exactly what the fire-and-forget arm
// lacks.
func faultQuickTree() TreeConfig { return quickTree() }

func runFaultPoint(t *testing.T, loss float64, reliable bool) *TreeResult {
	t.Helper()
	cfg := FaultTreeConfig(faultQuickTree(), loss, reliable)
	r, err := RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFireAndForgetFailsWhereReliableConverges is the acceptance
// criterion of the reliable control plane: at 2% control loss the
// fire-and-forget plane (the paper's implicit lossless-control
// assumption) either misses attackers or leaks sessions, while the
// ack+lease plane captures every attacker.
func TestFireAndForgetFailsWhereReliableConverges(t *testing.T) {
	attackers := faultQuickTree().NumAttackers

	ff := runFaultPoint(t, 0.02, false)
	t.Logf("fire-and-forget @2%%: captured %d/%d, leaked=%d, lost-ctrl=%d",
		len(ff.Captures), attackers, ff.OpenSessionsAtEnd, ff.FaultLossCount)
	if len(ff.Captures) >= attackers && ff.OpenSessionsAtEnd == 0 {
		t.Fatalf("fire-and-forget at 2%% control loss captured all %d attackers with no leaked sessions; fault injection is not biting", attackers)
	}

	rel := runFaultPoint(t, 0.02, true)
	t.Logf("ack+lease @2%%: captured %d/%d, leaked=%d, retrans=%d, give-ups=%d, lease-exp=%d",
		len(rel.Captures), attackers, rel.OpenSessionsAtEnd,
		rel.Ctrl.Retransmissions, rel.Ctrl.GiveUps, rel.Ctrl.LeaseExpiries)
	if len(rel.Captures) != attackers {
		t.Fatalf("reliable plane captured %d/%d attackers at 2%% control loss", len(rel.Captures), attackers)
	}
	if rel.Ctrl.Retransmissions == 0 {
		t.Fatal("reliable run saw no retransmissions; loss not exercised")
	}
	// Bounded convergence: every capture lands within the attack
	// window, i.e. recovery costs at most the epochs the window spans.
	cfg := faultQuickTree()
	for _, ct := range rel.CaptureTimes {
		if ct > cfg.AttackEnd-cfg.AttackStart {
			t.Fatalf("capture %.1f s after attack start — past the attack window", ct)
		}
	}
	if rel.OpenSessionsAtEnd != 0 {
		t.Fatalf("reliable plane leaked %d sessions", rel.OpenSessionsAtEnd)
	}
}

// TestFaultRunsAreDeterministic is the reproducibility criterion: the
// same seed and fault plan produce bit-identical capture times and
// control-plane counters.
func TestFaultRunsAreDeterministic(t *testing.T) {
	a := runFaultPoint(t, 0.02, true)
	b := runFaultPoint(t, 0.02, true)
	if len(a.CaptureTimes) != len(b.CaptureTimes) {
		t.Fatalf("capture counts differ across identical runs: %d vs %d", len(a.CaptureTimes), len(b.CaptureTimes))
	}
	for i := range a.CaptureTimes {
		if a.CaptureTimes[i] != b.CaptureTimes[i] {
			t.Fatalf("capture %d at %v vs %v", i, a.CaptureTimes[i], b.CaptureTimes[i])
		}
	}
	if a.Ctrl != b.Ctrl {
		t.Fatalf("control counters differ:\n%+v\n%+v", a.Ctrl, b.Ctrl)
	}
	if a.FaultLossCount != b.FaultLossCount || a.FaultOutageCount != b.FaultOutageCount {
		t.Fatalf("fault counters differ: (%d,%d) vs (%d,%d)",
			a.FaultLossCount, a.FaultOutageCount, b.FaultLossCount, b.FaultOutageCount)
	}
	if a.CtrlMessages != b.CtrlMessages {
		t.Fatalf("CtrlMessages differ: %d vs %d", a.CtrlMessages, b.CtrlMessages)
	}
	if math.Abs(a.MeanDuringAttack-b.MeanDuringAttack) > 0 {
		t.Fatalf("throughput differs: %v vs %v", a.MeanDuringAttack, b.MeanDuringAttack)
	}
}

// TestCrashRestartSelfHealsInTree injects router crash/restart cycles
// into the reliable run: the defense must still capture every attacker
// and count the sessions lost to crashes.
func TestCrashRestartSelfHealsInTree(t *testing.T) {
	cfg := FaultTreeConfig(faultQuickTree(), 0.01, true)
	cfg.FaultCrashes = 8
	r, err := RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crash run: captured %d/%d, sessions-lost-to-crash=%d, retrans=%d, give-ups=%d, leaked=%d",
		len(r.Captures), cfg.NumAttackers, r.Ctrl.SessionsLostToCrash,
		r.Ctrl.Retransmissions, r.Ctrl.GiveUps, r.OpenSessionsAtEnd)
	if len(r.Captures) != cfg.NumAttackers {
		t.Fatalf("captured %d/%d attackers across 3 crash/restart cycles", len(r.Captures), cfg.NumAttackers)
	}
	if r.OpenSessionsAtEnd != 0 {
		t.Fatalf("leaked %d sessions after crashes", r.OpenSessionsAtEnd)
	}
}

// TestExtFaultsTable smoke-tests the figure generator at a reduced
// sweep (quick scale) — shape only; the behavioural assertions live in
// the tests above.
func TestExtFaultsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("8-run sweep; skipped in -short")
	}
	tab, err := ExtFaults(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (4 loss points x 2 planes)", len(tab.Rows))
	}
	out := tab.Render()
	if out == "" {
		t.Fatal("empty render")
	}
}
