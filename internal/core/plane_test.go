package core

import (
	"testing"

	"repro/internal/netsim"
)

// planeRig is a router-plane server on a string of routers with no
// traffic, into which tests inject the progressive scheme's frontier
// reports by hand. atReport runs right after the server has processed
// each report, with the time it arrived.
type planeRig struct {
	*harness
	server   *netsim.Node
	atReport func(arrival float64)
}

func newPlaneRig(t *testing.T) *planeRig {
	h := newHarness(t, 10, poolCfg(2, 1, 10), Config{Progressive: true, Rho: 3, Tau: 0.5})
	r := &planeRig{harness: h, server: h.tr.Servers[0]}
	prev := r.server.Handler
	r.server.Handler = func(p *netsim.Packet, in *netsim.Port) {
		prev(p, in)
		if m, ok := p.Payload.(*Message); ok && m.Kind == Report && r.atReport != nil {
			r.atReport(h.sim.Now())
		}
	}
	h.pool.Start()
	return r
}

// report has router send a signed frontier report for epoch at time
// sentAt.
func (r *planeRig) report(router *netsim.Node, epoch int, sentAt float64) {
	m := &Message{Kind: Report, Server: r.server.ID, Epoch: epoch, Origin: router.ID, Timestamp: sentAt}
	m.Sign(r.def.Cfg.AuthKey)
	r.sim.At(sentAt, func() {
		router.Send(&netsim.Packet{Src: router.ID, TrueSrc: router.ID, Dst: r.server.ID, Size: 64, Type: netsim.Control, Payload: m})
	})
}

// TestRouterPlaneArmTime holds core's router plane to the progressive
// scheme's arm rule (Sec. 6): an intermediate that reported at sentAt
// and was heard t_A later is sent its direct request at
// opensAt − t_A − τ for the server's next honeypot window, or at once
// when that instant has already passed.
func TestRouterPlaneArmTime(t *testing.T) {
	r := newPlaneRig(t)
	sd := r.def.ServerDefense(r.server.ID)
	e0 := r.pool.NextHoneypotEpoch(r.server.ID, 0)
	next := r.pool.NextHoneypotEpoch(r.server.ID, e0+1)
	opensAt := r.pool.EpochStartTime(next) + r.pool.Config().Guard
	tau := r.def.Cfg.Tau

	// An early report: the arm waits until τ + t_A before the window.
	// A late one (sent as the next epoch starts): the arm is due now.
	early, late := r.pool.EpochStartTime(e0)+1, r.pool.EpochStartTime(next)
	r.report(r.tr.Routers[3], e0, early)
	r.report(r.tr.Routers[6], e0, late)
	checked := 0
	r.atReport = func(arrival float64) {
		checked++
		if checked == 1 {
			tA := arrival - early
			at := opensAt - tA - tau
			if at <= arrival {
				t.Fatalf("early report at %v arrives after its arm time %v", early, at)
			}
			r.sim.At(at-1e-6, func() {
				if sd.DirectRequestsSent != 0 {
					t.Errorf("direct request before opensAt − t_A − τ = %v", at)
				}
			})
			r.sim.At(at+1e-6, func() {
				if sd.DirectRequestsSent != 1 {
					t.Errorf("no direct request at opensAt − t_A − τ = %v", at)
				}
			})
			return
		}
		if at := opensAt - (arrival - late) - tau; at >= arrival {
			t.Fatalf("late report at %v arrives before its arm time %v", late, at)
		}
		// Scheduled after the arm, at the same instant: fires after it.
		r.sim.At(arrival, func() {
			if sd.DirectRequestsSent != 2 {
				t.Errorf("late report at %v: %d direct requests, want the arm clamped to now", late, sd.DirectRequestsSent)
			}
		})
	}
	if err := r.sim.RunUntil(opensAt); err != nil {
		t.Fatal(err)
	}
	if checked != 2 {
		t.Fatalf("%d reports reached the server, want 2", checked)
	}
}

// TestRouterPlaneRhoRemoval holds core's router plane to the ρ rule:
// the report that brings an intermediate's consecutive count to ρ
// removes it from the list and cancels its pending arm.
func TestRouterPlaneRhoRemoval(t *testing.T) {
	r := newPlaneRig(t)
	sd := r.def.ServerDefense(r.server.ID)
	rho := r.def.Cfg.Rho
	router := r.tr.Routers[4]
	e0 := r.pool.NextHoneypotEpoch(r.server.ID, 0)
	start := r.pool.EpochStartTime(e0) + 1
	for i := 0; i < rho; i++ {
		r.report(router, e0+i, start+0.01*float64(i))
	}
	seen := 0
	r.atReport = func(float64) {
		seen++
		wantList, wantRemovals := 1, int64(0)
		if seen >= rho {
			wantList, wantRemovals = 0, 1
		}
		if sd.Intermediates() != wantList || sd.RhoRemovals != wantRemovals {
			t.Errorf("after report %d of ρ=%d: %d intermediates, %d ρ removals; want %d, %d",
				seen, rho, sd.Intermediates(), sd.RhoRemovals, wantList, wantRemovals)
		}
	}
	next := r.pool.NextHoneypotEpoch(r.server.ID, e0+rho)
	if err := r.sim.RunUntil(r.pool.EpochStartTime(next) + 1); err != nil {
		t.Fatal(err)
	}
	if seen != rho {
		t.Fatalf("%d reports reached the server, want %d", seen, rho)
	}
	if sd.DirectRequestsSent != 0 {
		t.Fatalf("%d direct requests to an intermediate removed by ρ", sd.DirectRequestsSent)
	}
}
