package experiments

import (
	"testing"
)

// byzPoint runs the standard byzantine scenario: the quick tree attack
// with 4 subverted mid-tree routers injecting hostile control frames
// at 20/s each across the attack window.
func byzPoint(t *testing.T, hardened bool) *TreeResult {
	t.Helper()
	cfg := ByzantineTreeConfig(QuickScale().treeConfig(), 4, 20, hardened)
	r, err := RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestByzantineHardenedConverges is the tentpole acceptance criterion:
// with the authenticated control plane, default budgets and the
// watchdog, capture under byzantine routers completes for every
// attacker, blocks at most a stray legitimate client, lands within 2x
// of the fault-free capture time, and keeps defense state under budget
// the whole run.
func TestByzantineHardenedConverges(t *testing.T) {
	base := ByzantineTreeConfig(QuickScale().treeConfig(), 0, 20, true)
	bl, err := RunTree(base)
	if err != nil {
		t.Fatal(err)
	}
	if bl.AttackersCaptured != base.NumAttackers {
		t.Fatalf("fault-free baseline captured %d/%d", bl.AttackersCaptured, base.NumAttackers)
	}
	blCT := meanOf(bl.CaptureTimes)

	r := byzPoint(t, true)
	t.Logf("hardened: captured %d/%d, collateral %d, meanCT %.1f (baseline %.1f), injected %d, auth rejects %d, replay rejects %d, peak state %d/%d",
		r.AttackersCaptured, base.NumAttackers, r.CollateralBlocks,
		meanOf(r.CaptureTimes), blCT, r.ByzantineInjected,
		r.Sec.AuthRejects, r.Sec.ReplayRejects, r.PeakState, r.StateBudget)
	if r.ByzantineInjected == 0 {
		t.Fatal("no byzantine frames injected; the fault model is not biting")
	}
	if r.AttackersCaptured != base.NumAttackers {
		t.Fatalf("hardened plane captured %d/%d attackers under byzantine routers",
			r.AttackersCaptured, base.NumAttackers)
	}
	// A same-window replay whose original was queue-dropped is
	// indistinguishable from a retransmission, so one stray block can
	// slip through; anything more means the auth layer leaks.
	if r.CollateralBlocks > 1 {
		t.Fatalf("hardened plane blocked %d legitimate clients", r.CollateralBlocks)
	}
	if ct := meanOf(r.CaptureTimes); ct > 2*blCT {
		t.Fatalf("mean capture time %.1f s exceeds 2x the fault-free baseline %.1f s", ct, blCT)
	}
	if r.Sec.AuthRejects == 0 {
		t.Fatal("no auth rejects; forged frames were not exercised against the MAC")
	}
	if r.PeakState > r.StateBudget {
		t.Fatalf("peak state %d exceeded budget %d", r.PeakState, r.StateBudget)
	}
}

// TestByzantineTrustingCollapses shows why the hardening exists: with
// the paper's implicit trusting control plane, the same byzantine storm
// turns the defense into a weapon — replayed arming requests re-arm
// input debugging during serving windows and the defense blocks the
// legitimate clients it is meant to protect.
func TestByzantineTrustingCollapses(t *testing.T) {
	r := byzPoint(t, false)
	clients := QuickScale().treeConfig().Topology.Leaves - QuickScale().treeConfig().NumAttackers
	t.Logf("trusting: captured %d, collateral %d/%d clients, peak state %d",
		r.AttackersCaptured, r.CollateralBlocks, clients, r.PeakState)
	if r.CollateralBlocks < 5 {
		t.Fatalf("trusting plane blocked only %d legitimate clients; the byzantine storm should weaponize it", r.CollateralBlocks)
	}
	if r.Sec.AuthRejects != 0 || r.Sec.ReplayRejects != 0 {
		t.Fatalf("trusting plane rejected frames (auth %d, replay %d) with authentication off",
			r.Sec.AuthRejects, r.Sec.ReplayRejects)
	}
}

// TestByzantineRunsAreDeterministic: same seed, same storm — byte-equal
// capture times and security counters.
func TestByzantineRunsAreDeterministic(t *testing.T) {
	a := byzPoint(t, true)
	b := byzPoint(t, true)
	if a.ByzantineInjected != b.ByzantineInjected {
		t.Fatalf("injected %d vs %d", a.ByzantineInjected, b.ByzantineInjected)
	}
	if a.Sec != b.Sec {
		t.Fatalf("security counters differ:\n%+v\n%+v", a.Sec, b.Sec)
	}
	if a.PeakState != b.PeakState {
		t.Fatalf("peak state %d vs %d", a.PeakState, b.PeakState)
	}
	if len(a.CaptureTimes) != len(b.CaptureTimes) {
		t.Fatalf("capture counts differ: %d vs %d", len(a.CaptureTimes), len(b.CaptureTimes))
	}
	for i := range a.CaptureTimes {
		if a.CaptureTimes[i] != b.CaptureTimes[i] {
			t.Fatalf("capture %d at %v vs %v", i, a.CaptureTimes[i], b.CaptureTimes[i])
		}
	}
}

// TestHardeningOffPreservesBaseline pins the compatibility criterion:
// with the adversarial layer disabled (no auth, no watchdog, no
// byzantine nodes), the always-on state budgets never bind in the
// fault-free scenario — a run with 16x the default caps produces a
// bit-identical throughput series and capture schedule, and no
// shedding counter moves.
func TestHardeningOffPreservesBaseline(t *testing.T) {
	def := quickTree()
	a, err := RunTree(def)
	if err != nil {
		t.Fatal(err)
	}

	big := quickTree()
	big.Budget.Sessions = 1024
	big.Budget.DedupEntries = 8192
	big.Budget.PendingTransfers = 16384
	b, err := RunTree(big)
	if err != nil {
		t.Fatal(err)
	}

	if a.Sec != (TreeResult{}).Sec {
		t.Fatalf("fault-free run moved security counters: %+v", a.Sec)
	}
	if len(a.Throughput.Values) != len(b.Throughput.Values) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Throughput.Values), len(b.Throughput.Values))
	}
	for i := range a.Throughput.Values {
		if a.Throughput.Values[i] != b.Throughput.Values[i] {
			t.Fatalf("throughput sample %d differs: %v vs %v", i, a.Throughput.Values[i], b.Throughput.Values[i])
		}
	}
	if len(a.CaptureTimes) != len(b.CaptureTimes) {
		t.Fatalf("capture counts differ: %d vs %d", len(a.CaptureTimes), len(b.CaptureTimes))
	}
	for i := range a.CaptureTimes {
		if a.CaptureTimes[i] != b.CaptureTimes[i] {
			t.Fatalf("capture %d at %v vs %v", i, a.CaptureTimes[i], b.CaptureTimes[i])
		}
	}
}

// TestExtByzantineTable exercises the figures entry end to end.
func TestExtByzantineTable(t *testing.T) {
	if testing.Short() {
		t.Skip("5-run sweep; skipped in -short")
	}
	tab, err := ExtByzantine(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (baseline + 2 byz counts x 2 planes)", len(tab.Rows))
	}
	if tab.Render() == "" {
		t.Fatal("empty render")
	}
}
