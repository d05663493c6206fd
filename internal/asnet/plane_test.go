package asnet

import (
	"testing"

	"repro/internal/des"
)

// planeRig is an AS-plane server at one end of a chain of deploying
// transit ASes, with no traffic. Tests inject frontier reports the way
// an HSM sends them; opens records each direct request to an
// intermediate (an open addressed to another AS) with its send time.
type planeRig struct {
	sim   *des.Simulator
	g     *Graph
	def   *Defense
	srv   *Server
	path  []*AS // attacker end first, server's AS last
	opens map[ASID][]float64
}

func newPlaneRig(t *testing.T) *planeRig {
	sim, g, serverAS, attackerAS := chainTopo(t, 6)
	def := NewDefense(g, 10, Config{Progressive: true, Rho: 3, Tau: 0.5})
	def.DeployAll()
	r := &planeRig{sim: sim, g: g, def: def, path: g.Path(attackerAS.ID, serverAS.ID), opens: map[ASID][]float64{}}
	r.srv = NewServer(def, serverAS, testSchedule(t, 10, 40))
	def.ctrlTap = func(m *ctrlMsg, to ASID) {
		if m.op == opOpen && to != serverAS.ID {
			r.opens[to] = append(r.opens[to], sim.Now())
		}
	}
	return r
}

// report sends from's frontier report for epoch at time sentAt and
// calls after once the server has processed it.
func (r *planeRig) report(from *AS, epoch int, sentAt float64, after func(arrival float64)) {
	r.sim.At(sentAt, func() {
		m := &ctrlMsg{op: opReport, server: r.srv, epoch: epoch, origin: from.ID, sentAt: sentAt}
		r.def.sendAuthed(from.ID, r.srv.Home.ID, m, func(m *ctrlMsg) {
			r.srv.handleCtrl(m)
			after(r.sim.Now())
		})
	})
}

// TestASPlaneArmTime holds asnet's AS plane to the progressive
// scheme's arm rule (Sec. 6): an intermediate heard t_A after it
// reported is sent its direct request at opensAt − t_A − τ for the
// server's next honeypot window, or at once when that instant has
// already passed.
func TestASPlaneArmTime(t *testing.T) {
	r := newPlaneRig(t)
	sched := r.srv.Sched
	e0 := sched.NextHoneypotEpoch(0)
	next := sched.NextHoneypotEpoch(e0 + 1)
	opensAt := sched.StartTime(next) + sched.Guard
	tau := r.def.Cfg.Tau
	far, near := r.path[1], r.path[4]

	early, late := sched.StartTime(e0)+1, sched.StartTime(next)
	var wantFar, wantNear float64
	r.report(far, e0, early, func(arrival float64) {
		wantFar = opensAt - (arrival - early) - tau
		if wantFar <= arrival {
			t.Fatalf("early report arrives at %v, after its arm time %v", arrival, wantFar)
		}
	})
	r.report(near, e0, late, func(arrival float64) {
		if at := opensAt - (arrival - late) - tau; at >= arrival {
			t.Fatalf("late report arrives at %v, before its arm time %v", arrival, at)
		}
		wantNear = arrival
	})
	if err := r.sim.RunUntil(opensAt); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		as   *AS
		want float64
	}{{far, wantFar}, {near, wantNear}} {
		got := r.opens[c.as.ID]
		if len(got) != 1 || got[0] < c.want-1e-9 || got[0] > c.want+1e-9 {
			t.Errorf("AS %d: direct requests at %v, want one at %v", c.as.ID, got, c.want)
		}
	}
}

// TestASPlaneRhoRemoval holds asnet's AS plane to the ρ rule: the
// report that brings an intermediate's consecutive count to ρ removes
// it from the list and cancels its pending arm.
func TestASPlaneRhoRemoval(t *testing.T) {
	r := newPlaneRig(t)
	sched := r.srv.Sched
	rho := r.def.Cfg.Rho
	from := r.path[2]
	e0 := sched.NextHoneypotEpoch(0)
	start := sched.StartTime(e0) + 1
	seen := 0
	for i := 0; i < rho; i++ {
		r.report(from, e0+i, start+0.01*float64(i), func(float64) {
			seen++
			wantList, wantRemovals := 1, int64(0)
			if seen >= rho {
				wantList, wantRemovals = 0, 1
			}
			if r.srv.Intermediates() != wantList || r.srv.RhoRemovals != wantRemovals {
				t.Errorf("after report %d of ρ=%d: %d intermediates, %d ρ removals; want %d, %d",
					seen, rho, r.srv.Intermediates(), r.srv.RhoRemovals, wantList, wantRemovals)
			}
		})
	}
	next := sched.NextHoneypotEpoch(e0 + rho)
	if err := r.sim.RunUntil(sched.StartTime(next) + 1); err != nil {
		t.Fatal(err)
	}
	if seen != rho {
		t.Fatalf("%d reports reached the server, want %d", seen, rho)
	}
	if got := r.opens[from.ID]; len(got) != 0 {
		t.Fatalf("direct requests at %v to an intermediate removed by ρ", got)
	}
}
