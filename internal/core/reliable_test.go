package core

import (
	"math"
	"testing"

	"repro/internal/netsim"
)

// relCfg returns a reliable-control-plane config with a short ack
// timeout so retry schedules fit in test-sized runs.
func relCfg() Config {
	return Config{Reliable: true, AckTimeout: 0.05}
}

// TestRetryBackoffTable drives the sender state machine through its
// three outcomes — acked on the first try, acked after k losses,
// budget exhausted — plus the lost-ack path, by dropping scripted
// packets on the server—gateway link. A row with wantGaps also pins the
// backoff schedule: the time between consecutive Request transmissions.
func TestRetryBackoffTable(t *testing.T) {
	cases := []struct {
		name        string
		reqDrops    int // drop the first n Request transmissions
		ackDrops    int // drop the first n Ack transmissions
		wantRetrans int64
		wantGiveUps int64
		wantAcksRx  int64
		wantSession bool
		wantGaps    []float64
	}{
		{name: "ack-first-try", wantSession: true, wantAcksRx: 1},
		{name: "ack-after-2-losses", reqDrops: 2, wantRetrans: 2, wantAcksRx: 1, wantSession: true},
		{name: "lost-ack-duplicate-request", ackDrops: 1, wantRetrans: 1, wantAcksRx: 1, wantSession: true},
		// maxRetries is 5: initial send + 5 retransmissions,
		// then one give-up.
		// The timeout doubles after every attempt: AckTimeout·2^k.
		{name: "budget-exhausted", reqDrops: 100, wantRetrans: 5, wantGiveUps: 1,
			wantGaps: []float64{0.05, 0.1, 0.2, 0.4, 0.8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 3, poolCfg(2, 1, 10), relCfg())
			server := h.tr.Servers[0]
			sp := server.Ports()[0]
			gw := sp.Peer().Node()
			reqLeft, ackLeft := tc.reqDrops, tc.ackDrops
			var sent []float64 // Request transmission times
			sp.Link().Loss = func(p *netsim.Packet, from *netsim.Port) bool {
				m, ok := p.Payload.(*Message)
				if !ok {
					return false
				}
				if from == sp && m.Kind == Request {
					sent = append(sent, h.sim.Now())
					if reqLeft > 0 {
						reqLeft--
						return true
					}
				}
				if from == sp.Peer() && m.Kind == Ack && ackLeft > 0 {
					ackLeft--
					return true
				}
				return false
			}
			h.sim.At(0.1, func() {
				m := &Message{Kind: Request, Server: server.ID, Epoch: 0, Lease: 500}
				h.def.sendReliable(server, gw.ID, m, false, server.ID)
			})
			// Full backoff schedule at 0.05 s initial timeout:
			// 0.05+0.1+0.2+0.4+0.8+1.6 < 4 s.
			if err := h.sim.RunUntil(10); err != nil {
				t.Fatal(err)
			}
			if got := h.def.Ctrl.Retransmissions; got != tc.wantRetrans {
				t.Errorf("Retransmissions = %d, want %d", got, tc.wantRetrans)
			}
			if got := h.def.Ctrl.GiveUps; got != tc.wantGiveUps {
				t.Errorf("GiveUps = %d, want %d", got, tc.wantGiveUps)
			}
			if got := h.def.Ctrl.AcksReceived; got != tc.wantAcksRx {
				t.Errorf("AcksReceived = %d, want %d", got, tc.wantAcksRx)
			}
			ra := h.def.Router(gw.ID)
			if got := ra.HasSession(server.ID); got != tc.wantSession {
				t.Errorf("session open = %v, want %v", got, tc.wantSession)
			}
			if tc.wantSession && ra.SessionsCreated != 1 {
				t.Errorf("SessionsCreated = %d, want 1 (duplicates must refresh, not re-create)", ra.SessionsCreated)
			}
			if len(h.def.pending) != 0 {
				t.Errorf("%d transfers still pending after settle", len(h.def.pending))
			}
			if tc.wantGaps == nil {
				return
			}
			if len(sent) != len(tc.wantGaps)+1 {
				t.Fatalf("%d Request transmissions, want %d", len(sent), len(tc.wantGaps)+1)
			}
			for i, want := range tc.wantGaps {
				if gap := sent[i+1] - sent[i]; math.Abs(gap-want) > 1e-9 {
					t.Errorf("gap before transmission %d = %g s, want %g s", i+2, gap, want)
				}
			}
		})
	}
}

// TestLeaseExpiryThenLateCancel exercises the race the lease exists
// for: the session expires on its own, and the cancel that arrives
// afterwards must be an acked no-op — not a second close, not a
// retransmission storm.
func TestLeaseExpiryThenLateCancel(t *testing.T) {
	h := newHarness(t, 5, poolCfg(2, 1, 10), relCfg())
	server := h.tr.Servers[0]
	far := h.tr.Routers[2]
	h.sim.At(0.1, func() {
		m := &Message{Kind: Request, Server: server.ID, Epoch: 0, Direct: true, Lease: 1.0}
		h.def.sendReliable(server, far.ID, m, true, server.ID)
	})
	// The late cancel lands well after the 1-second lease has fired.
	h.sim.At(2.5, func() {
		cm := &Message{Kind: Cancel, Server: server.ID, Epoch: 0, Direct: true}
		h.def.sendReliable(server, far.ID, cm, true, server.ID)
	})
	if err := h.sim.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	ra := h.def.Router(far.ID)
	if !ra.HasSession(server.ID) {
		t.Fatal("session not opened")
	}
	if err := h.sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if ra.HasSession(server.ID) {
		t.Fatal("session outlived its lease")
	}
	if h.def.Ctrl.LeaseExpiries != 1 {
		t.Fatalf("LeaseExpiries = %d, want 1", h.def.Ctrl.LeaseExpiries)
	}
	if err := h.sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ra.SessionsClosed != 1 {
		t.Fatalf("SessionsClosed = %d, want 1 (late cancel must be a no-op)", ra.SessionsClosed)
	}
	// The late cancel is still acked so the server's sender state
	// machine terminates without burning its retry budget.
	if h.def.Ctrl.GiveUps != 0 {
		t.Fatalf("GiveUps = %d; late cancel not acked", h.def.Ctrl.GiveUps)
	}
	if len(h.def.pending) != 0 {
		t.Fatalf("%d transfers still pending", len(h.def.pending))
	}
}

// TestCrashWipesSessionsRestartStartsClean is the self-healing
// contract: a crash drops every session the router held and kills its
// retransmission state; a restart re-registers a clean agent that can
// serve new sessions, with cumulative stats carried over.
func TestCrashWipesSessionsRestartStartsClean(t *testing.T) {
	h := newHarness(t, 5, poolCfg(2, 1, 10), relCfg())
	server := h.tr.Servers[0]
	far := h.tr.Routers[2]
	send := func(epoch int) func() {
		return func() {
			m := &Message{Kind: Request, Server: server.ID, Epoch: epoch, Direct: true, Lease: 500}
			h.def.sendReliable(server, far.ID, m, true, server.ID)
		}
	}
	h.sim.At(0.1, send(0))
	h.sim.At(1.0, func() { h.def.CrashRouter(far) })
	h.sim.At(2.0, func() { h.def.RestartRouter(far) })
	h.sim.At(2.5, send(1))
	if err := h.sim.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if !h.def.Router(far.ID).HasSession(server.ID) {
		t.Fatal("session not opened before crash")
	}
	checkSessionCount(t, h.def)
	if err := h.sim.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	checkSessionCount(t, h.def)
	if h.def.Router(far.ID).ActiveSessions() != 0 {
		t.Fatal("crash left sessions behind")
	}
	if h.def.Ctrl.SessionsLostToCrash != 1 {
		t.Fatalf("SessionsLostToCrash = %d, want 1", h.def.Ctrl.SessionsLostToCrash)
	}
	if !far.Down() {
		t.Fatal("crashed router not down")
	}
	if err := h.sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	ra := h.def.Router(far.ID)
	if far.Down() {
		t.Fatal("router still down after restart")
	}
	if !ra.HasSession(server.ID) {
		t.Fatal("restarted router did not accept a new session")
	}
	if ra.SessionsCreated != 2 {
		t.Fatalf("SessionsCreated = %d, want 2 (stats carry across restart)", ra.SessionsCreated)
	}
	if h.def.Ctrl.GiveUps != 0 {
		t.Fatalf("GiveUps = %d, want 0", h.def.Ctrl.GiveUps)
	}
	checkSessionCount(t, h.def)

	// A restart with no crash before it is still a power cycle: the
	// live agent's session goes with its RAM.
	before := h.def.OpenSessions()
	h.def.RestartRouter(far)
	checkSessionCount(t, h.def)
	if h.def.Router(far.ID) == ra || ra.ActiveSessions() != 0 || h.def.OpenSessions() != before-1 {
		t.Fatalf("restart over a live agent kept its session: %d open, %d before", h.def.OpenSessions(), before)
	}
	if h.def.Ctrl.SessionsLostToCrash != 2 {
		t.Fatalf("SessionsLostToCrash = %d, want 2", h.def.Ctrl.SessionsLostToCrash)
	}
}

// TestRetransmissionHealsAcrossCrash sends a request at a router that
// is down, and checks the backoff schedule carries it past the
// restart: the transfer completes with zero give-ups once the router
// returns.
func TestRetransmissionHealsAcrossCrash(t *testing.T) {
	h := newHarness(t, 5, poolCfg(2, 1, 10), Config{Reliable: true, AckTimeout: 0.1})
	server := h.tr.Servers[0]
	far := h.tr.Routers[2]
	h.sim.At(0.02, func() { h.def.CrashRouter(far) })
	h.sim.At(0.1, func() {
		m := &Message{Kind: Request, Server: server.ID, Epoch: 0, Direct: true, Lease: 500}
		h.def.sendReliable(server, far.ID, m, true, server.ID)
	})
	// Retries at 0.2, 0.4, 0.8; the router is back at 0.5, so the
	// third retry lands.
	h.sim.At(0.5, func() { h.def.RestartRouter(far) })
	if err := h.sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if !h.def.Router(far.ID).HasSession(server.ID) {
		t.Fatal("session never recovered after restart")
	}
	if h.def.Ctrl.Retransmissions == 0 {
		t.Fatal("healing required zero retransmissions — crash window not exercised")
	}
	if h.def.Ctrl.GiveUps != 0 {
		t.Fatalf("GiveUps = %d, want 0", h.def.Ctrl.GiveUps)
	}
	if len(h.def.pending) != 0 {
		t.Fatalf("%d transfers still pending", len(h.def.pending))
	}
}

// TestReliableEndToEndCaptureUnderLoss is the whole point of the
// reliable control plane: with 20% control-packet loss on the first
// hop, back-propagation still converges to a capture.
func TestReliableEndToEndCaptureUnderLoss(t *testing.T) {
	h := newHarness(t, 6, poolCfg(2, 1, 10), relCfg())
	server := h.tr.Servers[0]
	sp := server.Ports()[0]
	drop := 0
	sp.Link().Loss = func(p *netsim.Packet, from *netsim.Port) bool {
		if p.Type != netsim.Control {
			return false
		}
		// Deterministic 1-in-5 control loss, both directions.
		drop++
		return drop%5 == 0
	}
	atk := h.attackCBR(server.ID, 4e5)
	h.pool.Start()
	h.sim.At(0.5, func() { atk.Start() })
	if err := h.sim.RunUntil(120); err != nil {
		t.Fatal(err)
	}
	if len(h.def.Captures()) != 1 {
		t.Fatalf("captures under 20%% control loss = %d, want 1", len(h.def.Captures()))
	}
	if h.def.Ctrl.GiveUps != 0 && h.def.Ctrl.Retransmissions == 0 {
		t.Fatal("loss hook never exercised the retransmission path")
	}
}
