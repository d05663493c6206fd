package asnet

import (
	"testing"
)

// TestAuthRejectsForgedControl subverts a mid-chain transit AS and
// sprays forged session requests and cancels at the server's home AS.
// With Auth on, every forgery bounces off the MAC, the genuine capture
// still completes, and no forged session survives.
func TestAuthRejectsForgedControl(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 5)
	def := NewDefense(g, 10, Config{Auth: true, AuthKey: []byte("asnet-key")})
	def.DeployAll()
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)
	atk := NewAttacker(def, attackerAS, srv, 50)

	byzAS := g.Path(attackerAS.ID, serverAS.ID)[2]
	adv := NewAdversary(def, byzAS)
	// Forge a teardown storm against every AS on the path, every 100 ms.
	path := g.Path(attackerAS.ID, serverAS.ID)
	for i := 0; i < 200; i++ {
		at := 0.5 + float64(i)*0.1
		sim.At(at, func() {
			for _, a := range path {
				adv.ForgeCancel(a, srv, srv.Epoch())
				adv.ForgeOpen(a, srv, 7)
			}
		})
	}
	sim.At(0.5, func() { atk.Start() })
	if err := sim.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	if adv.Injected == 0 {
		t.Fatal("adversary injected nothing")
	}
	if def.Sec.AuthRejects == 0 {
		t.Fatal("no forgery was rejected at the MAC")
	}
	if len(def.Captures()) != 1 {
		t.Fatalf("captures = %d, want 1 (forgery storm must not prevent capture)", len(def.Captures()))
	}
}

// TestForgedCancelKillsUnauthenticatedDefense is the control run: the
// same teardown storm with Auth off tears sessions down as fast as
// they open, and the capture never happens.
func TestForgedCancelKillsUnauthenticatedDefense(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 5)
	def := NewDefense(g, 10, Config{})
	def.DeployAll()
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)
	atk := NewAttacker(def, attackerAS, srv, 50)

	byzAS := g.Path(attackerAS.ID, serverAS.ID)[2]
	adv := NewAdversary(def, byzAS)
	path := g.Path(attackerAS.ID, serverAS.ID)
	for i := 0; i < 4000; i++ {
		at := 0.5 + float64(i)*0.1
		sim.At(at, func() {
			for _, a := range path {
				adv.ForgeCancel(a, srv, srv.Epoch())
			}
		})
	}
	sim.At(0.5, func() { atk.Start() })
	if err := sim.RunUntil(400); err != nil {
		t.Fatal(err)
	}
	if def.Sec.AuthRejects != 0 {
		t.Fatal("unauthenticated defense cannot reject anything")
	}
	if len(def.Captures()) != 0 {
		t.Fatalf("captures = %d; expected the forged-cancel storm to defeat the unauthenticated defense", len(def.Captures()))
	}
}

// TestHSMSessionBudget fills an HSM's table with forged far-away
// sessions and checks a near-victim session still gets in, the table
// never exceeds its budget, and further junk is refused.
func TestHSMSessionBudget(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 5)
	def := NewDefense(g, 10, Config{Budget: Budget{Sessions: 2}})
	def.DeployAll()
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)

	// The HSM next to the server; junk servers "live" in the attacker
	// stub, 5 hops away.
	hsm := serverAS.hsm
	junk1 := &Server{Home: attackerAS, Sched: sched}
	junk2 := &Server{Home: attackerAS, Sched: sched}
	junk3 := &Server{Home: attackerAS, Sched: sched}
	hsm.openSession(junk1, 0)
	hsm.openSession(junk2, 0)
	if hsm.ActiveSessions() != 2 {
		t.Fatalf("sessions = %d, want 2", hsm.ActiveSessions())
	}
	// The local server (distance 0) outranks the junk (distance 5).
	hsm.openSession(srv, 0)
	if !hsm.HasSession(srv) {
		t.Fatal("near-victim session was not admitted")
	}
	if hsm.ActiveSessions() != 2 {
		t.Fatalf("table exceeded budget: %d", hsm.ActiveSessions())
	}
	if def.Sec.SessionEvictions != 1 {
		t.Fatalf("SessionEvictions = %d, want 1", def.Sec.SessionEvictions)
	}
	// More junk is refused: it ranks below everything resident.
	hsm.openSession(junk3, 0)
	if hsm.HasSession(junk3) {
		t.Fatal("junk admitted past a stronger table")
	}
	if def.Sec.AdmissionRejects != 1 {
		t.Fatalf("AdmissionRejects = %d, want 1", def.Sec.AdmissionRejects)
	}
	if def.PeakState > def.StateBudget() {
		t.Fatalf("peak state %d exceeded budget %d", def.PeakState, def.StateBudget())
	}
	_ = sim
}

// TestMarkSpoofRejected injects observations whose edge-router mark
// names a non-neighbor AS. Under Auth the spoofed marks are discarded
// and never propagate sessions; without Auth they poison propagation.
func TestMarkSpoofRejected(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 5)
	def := NewDefense(g, 10, Config{Auth: true, AuthKey: []byte("mark-key")})
	def.DeployAll()
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)

	adv := NewAdversary(def, attackerAS)
	// Give the home HSM a genuine session, then spray spoofed marks
	// claiming ingress from the far stub (not a neighbor of serverAS).
	serverAS.hsm.openSession(srv, 0)
	before := serverAS.hsm.Propagations
	adv.SpoofMark(serverAS, srv, attackerAS.ID)
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if def.Sec.MarkSpoofRejects != 1 {
		t.Fatalf("MarkSpoofRejects = %d, want 1", def.Sec.MarkSpoofRejects)
	}
	if serverAS.hsm.Propagations != before {
		t.Fatal("spoofed mark caused a propagation")
	}
}

// TestReplayedCancelIsEpochBounded captures a genuine cancel and
// replays it after the epoch advances: the tag still verifies for its
// own epoch, but the epoch-match rule refuses to let it tear down the
// newer session.
func TestReplayedCancelIsEpochBounded(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 3)
	def := NewDefense(g, 10, Config{Auth: true, AuthKey: []byte("replay-key")})
	def.DeployAll()
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)
	adv := NewAdversary(def, attackerAS)

	// A genuine open+close cycle in epoch 0 gives the adversary a
	// signed cancel to capture.
	m := &ctrlMsg{op: opClose, server: srv, epoch: 0, origin: serverAS.ID}
	def.sendAuthed(serverAS.ID, serverAS.ID, m, serverAS.hsm.handleCtrl)
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if adv.Captured() == 0 {
		t.Fatal("adversary tap captured nothing")
	}

	// Epoch 3 session is live; the replayed epoch-0 cancel must bounce.
	serverAS.hsm.openSession(srv, 3)
	adv.Replay(serverAS, 0)
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if !serverAS.hsm.HasSession(srv) {
		t.Fatal("replayed stale cancel tore down the current session")
	}
	if def.Sec.ReplayRejects == 0 {
		t.Fatal("stale cancel was not counted as a replay reject")
	}
}

// TestLegacyDedupBounded floods a legacy AS with distinct flood IDs
// and checks the dedup set stays capped.
func TestLegacyDedupBounded(t *testing.T) {
	sim, g, serverAS, attackerAS := chainTopo(t, 3)
	def := NewDefense(g, 10, Config{Budget: Budget{DedupEntries: 8}})
	// Middle transit is legacy; ends deploy.
	mid := g.Path(attackerAS.ID, serverAS.ID)[2]
	def.DeployAll()
	leg := def.DeployLegacy(mid)
	sched := testSchedule(t, 10, 40)
	srv := NewServer(def, serverAS, sched)

	for i := int64(1); i <= 50; i++ {
		pb := &piggyback{kind: pbRequest, server: srv, epoch: 0, id: i}
		def.signPiggyback(pb)
		leg.relay(pb, serverAS.ID)
	}
	if err := sim.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if leg.seen.Len() != 8 {
		t.Fatalf("dedup set = %d entries, want capped at 8", leg.seen.Len())
	}
	if def.Sec.DedupEvictions != 42 {
		t.Fatalf("DedupEvictions = %d, want 42", def.Sec.DedupEvictions)
	}
}

// TestAsnetWatchdogReseeds wipes every HSM's sessions mid-window while
// the attack continues; the watchdog must detect the stall, re-seed,
// and the capture must still land within the window.
func TestAsnetWatchdogReseeds(t *testing.T) {
	run := func(watchdog bool) (*Defense, *Attacker) {
		sim, g, serverAS, attackerAS := chainTopo(t, 5)
		def := NewDefense(g, 10, Config{Watchdog: watchdog, WatchdogInterval: 0.5})
		def.DeployAll()
		sched := testSchedule(t, 10, 40)
		srv := NewServer(def, serverAS, sched)
		// Slow attack: at 2 pkt/s the hop-by-hop walk takes ~3 s, so the
		// wipe below lands while it is still mid-chain.
		atk := NewAttacker(def, attackerAS, srv, 2)

		ep := sched.NextHoneypotEpoch(0)
		open := sched.StartTime(ep) + sched.Guard
		sim.At(open, func() { atk.Start() })
		// Wipe all session state shortly after propagation begins.
		sim.At(open+1, func() {
			for _, a := range g.ases {
				if a.hsm == nil {
					continue
				}
				for s, sess := range a.hsm.sessions {
					sim.Cancel(sess.Expiry)
					delete(a.hsm.sessions, s)
				}
			}
		})
		if err := sim.RunUntil(sched.StartTime(ep) + sched.M); err != nil {
			t.Fatal(err)
		}
		return def, atk
	}

	def, atk := run(true)
	if def.Sec.WatchdogReseeds == 0 {
		t.Fatal("watchdog never fired despite stalled propagation")
	}
	if !atk.Captured() {
		t.Fatal("no capture with watchdog enabled")
	}
	defOff, atkOff := run(false)
	if atkOff.Captured() {
		t.Fatal("control run captured without the watchdog; scenario is not a stall")
	}
	if defOff.Sec.WatchdogReseeds != 0 {
		t.Fatal("watchdog counter moved while disabled")
	}
}
