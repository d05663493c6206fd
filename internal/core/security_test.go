package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/hbp"
	"repro/internal/netsim"
)

// TestWeakerSessionOrder pins the eviction priority: farther from the
// victim is weaker (unroutable counts as infinitely far), then fewer
// observed packets, then the higher server ID — a total order, so map
// iteration never influences which session is shed.
func TestWeakerSessionOrder(t *testing.T) {
	near := &session{server: 1, SessionCore: hbp.SessionCore{Dist: 2, Total: 10}}
	far := &session{server: 2, SessionCore: hbp.SessionCore{Dist: 8, Total: 10}}
	forged := &session{server: 3, SessionCore: hbp.SessionCore{Dist: -1, Total: 100}}
	quiet := &session{server: 4, SessionCore: hbp.SessionCore{Dist: 2, Total: 1}}
	twin := &session{server: 5, SessionCore: hbp.SessionCore{Dist: 2, Total: 10}}

	cases := []struct {
		name string
		a, b *session
		want bool
	}{
		{"far weaker than near", far, near, true},
		{"near not weaker than far", near, far, false},
		{"forged weaker than far", forged, far, true},
		{"quiet weaker than near", quiet, near, true},
		{"higher id weaker on full tie", twin, near, true},
		{"not weaker than self", near, near, false},
	}
	for _, c := range cases {
		if got := weakerSession(c.a, c.b); got != c.want {
			t.Errorf("%s: weakerSession = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSessionTableExhaustion mounts the session-table-exhaustion
// attack: requests for forged (unroutable) servers fill a router's
// table to its budget, then a request for a real server arrives. The
// real session must be admitted by evicting forged state; further
// forged requests must be refused; the table must never exceed its
// budget.
func TestSessionTableExhaustion(t *testing.T) {
	h := newHarness(t, 3, poolCfg(2, 1, 10), Config{
		Budget: Budget{Sessions: 2},
	})
	r := h.tr.AccessRouter(h.tr.Leaves[0])
	ra := h.def.routers[r.ID]

	// Two forged servers (IDs no node has) fill the table.
	ra.openSession(&Message{Kind: Request, Server: 9001, Epoch: 0, Lease: 100})
	checkSessionCount(t, h.def)
	ra.openSession(&Message{Kind: Request, Server: 9002, Epoch: 0, Lease: 100})
	checkSessionCount(t, h.def)
	if got := len(ra.sessions); got != 2 {
		t.Fatalf("sessions after fill = %d, want 2", got)
	}

	// A real server must displace forged state: both residents are
	// unroutable, so the weakest (higher server ID, 9002) goes first.
	real := h.tr.Servers[0].ID
	ra.openSession(&Message{Kind: Request, Server: real, Epoch: 0, Lease: 100})
	checkSessionCount(t, h.def)
	if len(ra.sessions) != 2 {
		t.Fatalf("sessions after real admission = %d, want 2 (budget)", len(ra.sessions))
	}
	if !ra.HasSession(real) {
		t.Fatal("real-server session was not admitted")
	}
	if ra.HasSession(9002) {
		t.Fatal("eviction shed the wrong session (expected 9002, the weakest)")
	}
	if h.def.Sec.SessionEvictions != 1 {
		t.Fatalf("SessionEvictions = %d, want 1", h.def.Sec.SessionEvictions)
	}

	// Another forged request ranks below every resident: refused.
	ra.openSession(&Message{Kind: Request, Server: 9003, Epoch: 0, Lease: 100})
	checkSessionCount(t, h.def)
	if ra.HasSession(9003) {
		t.Fatal("forged session admitted past a stronger table")
	}
	if h.def.Sec.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", h.def.Sec.AdmissionRejects)
	}
	if len(ra.sessions) != 2 {
		t.Fatalf("table exceeded budget: %d sessions", len(ra.sessions))
	}

	// The second real server outranks the remaining forged resident.
	real2 := h.tr.Servers[1].ID
	ra.openSession(&Message{Kind: Request, Server: real2, Epoch: 0, Lease: 100})
	checkSessionCount(t, h.def)
	if !ra.HasSession(real2) || ra.HasSession(9001) {
		t.Fatal("second real server did not displace the forged resident")
	}

	// A cancel closes one; teardown wipes the rest.
	ra.closeSession(&Message{Kind: Cancel, Server: real, Epoch: 0}, false)
	checkSessionCount(t, h.def)
	if got := h.def.OpenSessions(); got != 1 {
		t.Fatalf("OpenSessions after one close = %d, want 1", got)
	}
	h.def.Close()
	checkSessionCount(t, h.def)
	if got := h.def.StateSize(); got != 0 {
		t.Fatalf("StateSize after Close = %d, want 0", got)
	}
}

// checkSessionCount compares Defense's running session count with the
// sum over every router's table it replaced in StateSize.
func checkSessionCount(t *testing.T, d *Defense) {
	t.Helper()
	sum := 0
	for _, a := range d.routers {
		sum += len(a.sessions)
	}
	if d.openSessions != sum {
		t.Fatalf("running session count %d, routers hold %d", d.openSessions, sum)
	}
}

// TestPendingReclaimedEndToEnd is the pending-table leak test: after a
// full reliable-control-plane run with capture, cancel and teardown,
// every retransmission entry must be reclaimed.
func TestPendingReclaimedEndToEnd(t *testing.T) {
	h := newHarness(t, 6, poolCfg(2, 1, 10), Config{Reliable: true})
	target := h.tr.Servers[0].ID
	atk := h.attackCBR(target, 4e5)
	h.pool.Start()
	h.sim.At(1, func() { atk.Start() })
	if err := h.sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if len(h.def.Captures()) == 0 {
		t.Fatal("no capture; scenario did not exercise the control plane")
	}
	if n := h.def.PendingTransfers(); n != 0 {
		t.Fatalf("pending transfers leaked: %d entries alive after run", n)
	}
	if n := h.def.OpenSessions(); n != 0 {
		t.Fatalf("sessions leaked: %d open after run", n)
	}
}

// TestPendingBudgetDegradesToFireAndForget caps the retransmit table
// at 1 and checks that overflowing transfers still go out (the message
// is sent) but do not grow the table.
func TestPendingBudgetDegradesToFireAndForget(t *testing.T) {
	h := newHarness(t, 3, poolCfg(2, 1, 10), Config{
		Reliable: true,
		Budget:   Budget{PendingTransfers: 1},
	})
	r := h.tr.AccessRouter(h.tr.Leaves[0])
	srv := h.tr.Servers[0]
	for i := 0; i < 5; i++ {
		h.def.sendReliable(srv, r.ID, &Message{Kind: Request, Server: srv.ID, Epoch: 0}, false, srv.ID)
	}
	if n := h.def.PendingTransfers(); n != 1 {
		t.Fatalf("pending table grew past budget: %d entries", n)
	}
	if h.def.Sec.PendingOverflows != 4 {
		t.Fatalf("PendingOverflows = %d, want 4", h.def.Sec.PendingOverflows)
	}
}

// TestWatchdogReseedsAfterStateLoss wipes the first-hop router's
// sessions mid-epoch (as a budget eviction or crash would) while the
// attack keeps hitting the honeypot. Without the watchdog the epoch
// ends captureless; with it, the stall is detected, the tree is
// re-seeded and the attacker is still captured.
func TestWatchdogReseedsAfterStateLoss(t *testing.T) {
	run := func(watchdog bool) (*harness, int64) {
		// A long chain and a slow attack (2 pkt/s) so the hop-by-hop
		// walk is still in flight when the wipe lands.
		h := newHarness(t, 12, poolCfg(2, 1, 20), Config{Watchdog: watchdog, WatchdogInterval: 1})
		target := h.tr.Servers[0].ID
		atk := h.attackCBR(target, 8e3)
		h.pool.Start()
		// Anchor the scenario to the target's first honeypot window so
		// the wipe lands mid-epoch, after propagation has begun.
		ep := h.pool.NextHoneypotEpoch(target, 0)
		if ep < 0 {
			t.Fatal("target never becomes a honeypot")
		}
		open := h.pool.EpochStartTime(ep)
		h.sim.At(open, func() { atk.Start() })
		h.sim.At(open+3, func() {
			for _, ra := range h.def.routers {
				ra.crash()
			}
		})
		if err := h.sim.RunUntil(h.pool.EpochStartTime(ep + 1)); err != nil {
			t.Fatal(err)
		}
		return h, h.def.Sec.WatchdogReseeds
	}

	h, reseeds := run(true)
	if reseeds == 0 {
		t.Fatal("watchdog never fired despite stalled propagation")
	}
	if len(h.def.Captures()) == 0 {
		t.Fatal("no capture with watchdog enabled")
	}

	hOff, _ := run(false)
	if len(hOff.def.Captures()) != 0 {
		t.Fatal("control run captured without the watchdog; scenario is not a stall")
	}
}

// TestReplayWindowRejectsDuplicates delivers a genuinely signed
// request twice under EpochAuth and checks the duplicate is counted
// and suppressed without touching session state.
func TestReplayWindowRejectsDuplicates(t *testing.T) {
	h := newHarness(t, 3, poolCfg(2, 1, 10), Config{EpochAuth: true, AuthKey: []byte("replay-key")})
	r := h.tr.AccessRouter(h.tr.Leaves[0])
	ra := h.def.routers[r.ID]
	srv := h.tr.Servers[0].ID

	m := &Message{Kind: Request, Server: srv, Epoch: 0, Seq: 1, Lease: 100}
	h.def.signCtrl(m, r.ID)
	p := newCtrlPacket(srv, r.ID, m)
	p.TTL = netsim.DefaultTTL
	ra.handleControl(p, r.Ports()[0])
	if !ra.HasSession(srv) {
		t.Fatal("genuine request did not open a session")
	}
	created := ra.SessionsCreated

	ra.handleControl(p, r.Ports()[0])
	if h.def.Sec.ReplayRejects != 1 {
		t.Fatalf("ReplayRejects = %d, want 1", h.def.Sec.ReplayRejects)
	}
	if ra.SessionsCreated != created {
		t.Fatal("replay mutated session state")
	}

	// A tampered copy (bumped epoch, stale tag) must fail the MAC.
	bad := *m
	bad.Epoch = 1
	pb := newCtrlPacket(srv, r.ID, &bad)
	ra.handleControl(pb, r.Ports()[0])
	if h.def.Sec.AuthRejects != 1 {
		t.Fatalf("AuthRejects = %d, want 1", h.def.Sec.AuthRejects)
	}
}

// TestByzantineAdapterUnderAuth runs a full capture scenario with a
// subverted mid-chain router spraying forged, replayed and amplified
// control frames. Under EpochAuth the hostile frames are rejected at
// the MAC (or replay window), forged server IDs never occupy session
// state, and the genuine capture still happens.
func TestByzantineAdapterUnderAuth(t *testing.T) {
	h := newHarness(t, 8, poolCfg(2, 1, 10), Config{
		EpochAuth: true,
		AuthKey:   []byte("byz-key"),
		Reliable:  true,
	})
	target := h.tr.Servers[0].ID
	atk := h.attackCBR(target, 4e5)

	byzNode := h.tr.AccessRouter(h.tr.Leaves[0]).Ports()[1].Peer().Node() // a mid-chain router
	adapter := NewByzantineAdapter(h.def, []netsim.NodeID{h.tr.Servers[0].ID, h.tr.Servers[1].ID})
	adapter.Tap(byzNode)
	plan := faults.Plan{
		Seed: 5,
		Byzantine: []faults.ByzantineNode{{
			Node:      byzNode.ID,
			Behaviors: faults.AllByzantineBehaviors(),
			Rate:      20,
			Start:     0.5,
			End:       60,
		}},
	}
	faults.Apply(h.sim, h.tr.Net, plan, faults.Hooks{OnByzantine: adapter.OnByzantine})

	h.pool.Start()
	h.sim.At(1, func() { atk.Start() })
	if err := h.sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}

	if adapter.Injected == 0 {
		t.Fatal("adapter injected nothing")
	}
	if h.def.Sec.AuthRejects == 0 {
		t.Fatal("no hostile frame was rejected at the MAC")
	}
	if len(h.def.Captures()) == 0 {
		t.Fatal("byzantine pressure prevented the genuine capture")
	}
	for _, ra := range h.def.routers {
		for server := range ra.sessions {
			if server >= 900000 {
				t.Fatalf("forged server %d occupies session state", server)
			}
		}
	}
	if h.def.PeakState > h.def.StateBudget() {
		t.Fatalf("peak state %d exceeded budget %d", h.def.PeakState, h.def.StateBudget())
	}
}

// TestDedupBudgetSlidesWindow floods a legacy relay with more distinct
// flood IDs than its dedup budget and checks the set stays capped
// while evictions are counted.
func TestDedupBudgetSlidesWindow(t *testing.T) {
	h := newHarness(t, 3, poolCfg(2, 1, 10), Config{Budget: Budget{DedupEntries: 4}})
	r := h.tr.AccessRouter(h.tr.Leaves[0])
	// Demote the router to a legacy relay for this test.
	la := newLegacyAgent(h.def, r)
	h.def.legacy[r.ID] = la
	for i := int64(1); i <= 10; i++ {
		m := &Message{Kind: PiggybackRequest, Server: 9000, Epoch: 0, FloodID: i}
		la.handleControl(newCtrlPacket(9000, r.ID, m), r.Ports()[0])
	}
	if la.seen.Len() != 4 {
		t.Fatalf("dedup set size = %d, want capped at 4", la.seen.Len())
	}
	if h.def.Sec.DedupEvictions != 6 {
		t.Fatalf("DedupEvictions = %d, want 6", h.def.Sec.DedupEvictions)
	}
}
