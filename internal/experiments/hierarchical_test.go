package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asnet"
	"repro/internal/des"
)

// hierarchicalRun runs one fixed-seed unified hierarchical scenario —
// generated AS graph, embedded per-stub-AS router-level intra-AS
// model, dispersed attackers — for until seconds and folds everything
// observable into a string: the exact inter-AS capture sequence, every
// embedded sub-network's counters and residual state, and the outer
// defense counters. It also returns the embedded model, whose per-AS
// networks exist once a traceback has reached them.
func hierarchicalRun(t *testing.T, until float64) (string, *asnet.EmbeddedIntraAS) {
	t.Helper()
	sim := des.New()
	g := asnet.NewGraph(sim)
	_, stubs, err := asnet.GenerateTopology(g, asnet.TopoParams{Transits: 6, Stubs: 10, ExtraLinks: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	em := &asnet.EmbeddedIntraAS{Seed: 11}
	def := asnet.NewDefense(g, 10, asnet.Config{Progressive: true, Rho: 8, IntraAS: em})
	def.DeployAll()
	sched, err := asnet.NewSchedule([]byte("hier-fp"), 2, 1, 0, 10, 0.2, 60)
	if err != nil {
		t.Fatal(err)
	}
	srv := asnet.NewServer(def, stubs[0], sched)

	fp := ""
	def.OnCapture = func(c asnet.Capture) {
		fp += fmt.Sprintf("cap as=%d t=%.9f;", c.AS, c.Time)
	}
	for i, stub := range stubs[1:5] {
		atk := asnet.NewAttacker(def, stub, srv, 8+float64(4*i))
		start := 0.5 + 0.7*float64(i)
		sim.At(start, func() { atk.Start() })
	}
	if err := sim.RunUntil(until); err != nil {
		t.Fatal(err)
	}
	for _, sub := range em.Subs() {
		fp += fmt.Sprintf("sub as=%d tb=%d ab=%d caps=%d state=%d;",
			sub.AS, sub.Tracebacks, sub.Aborted, sub.Def.CaptureCount(), sub.Def.StateSize())
	}
	fp += fmt.Sprintf("msg=%d ingress=%d peak=%d reports=%d",
		def.MsgSent, def.IngressLookups, def.PeakState, srv.ReportsReceived)
	return fp, em
}

// TestHierarchicalFingerprint pins determinism on the unified run:
// the inter-AS plane and the embedded intra-AS router networks share
// one simulator clock, so a map-order or RNG leak in either plane —
// or in the coupling between them — shows up as a flaky diff here.
// Also exercised under -race in CI.
func TestHierarchicalFingerprint(t *testing.T) {
	a, _ := hierarchicalRun(t, 600)
	b, _ := hierarchicalRun(t, 600)
	if a != b {
		t.Fatalf("same seed produced different runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "cap as=") {
		t.Fatalf("scenario captured nothing; fingerprint pins too little: %s", a)
	}
	if !strings.Contains(a, "sub as=") {
		t.Fatalf("no embedded intra-AS network was instantiated: %s", a)
	}
}

// TestHierarchicalStateClean is the cross-plane state-hygiene
// invariant: after every embedded capture (once the cancel wave has
// drained) and after the final epoch closes, each per-AS sub-defense's
// StateSize must return to its construction-time baseline. A session
// entry, dedup record or pending transfer left behind by the intra-AS
// traceback would accumulate across epochs and leak outer-plane state
// into the embedded plane.
func TestHierarchicalStateClean(t *testing.T) {
	sim := des.New()
	g := asnet.NewGraph(sim)
	serverAS := g.AddAS(false)
	prev := serverAS
	for i := 0; i < 3; i++ {
		tr := g.AddAS(true)
		g.Connect(prev, tr)
		prev = tr
	}
	atkAS1 := g.AddAS(false)
	atkAS2 := g.AddAS(false)
	g.Connect(prev, atkAS1)
	g.Connect(prev, atkAS2)
	g.ComputeRoutes()

	em := &asnet.EmbeddedIntraAS{Seed: 3}
	def := asnet.NewDefense(g, 10, asnet.Config{IntraAS: em})
	def.DeployAll()
	sched, err := asnet.NewSchedule([]byte("hier-clean"), 2, 1, 0, 10, 0.2, 40)
	if err != nil {
		t.Fatal(err)
	}
	srv := asnet.NewServer(def, serverAS, sched)

	checks := 0
	def.OnCapture = func(c asnet.Capture) {
		// The embedded teardown propagates the cancel hop-by-hop down
		// the sub-AS routers; once it has drained (and no other
		// traceback is using the network) state must be at baseline.
		sim.After(1.5, func() {
			for _, sub := range em.Subs() {
				if !sub.Idle() {
					continue
				}
				checks++
				if got, want := sub.Def.StateSize(), sub.Baseline(); got != want {
					t.Errorf("after capture at t=%.3f: sub AS %d state %d != baseline %d",
						c.Time, sub.AS, got, want)
				}
			}
		})
	}
	a1 := asnet.NewAttacker(def, atkAS1, srv, 20)
	a2 := asnet.NewAttacker(def, atkAS2, srv, 12)
	sim.At(0.5, func() { a1.Start() })
	sim.At(1.1, func() { a2.Start() })
	if err := sim.RunUntil(900); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("no post-capture state checks ran; scenario captured nothing")
	}
	if !a1.Captured() || !a2.Captured() {
		t.Fatalf("attackers escaped: a1=%v a2=%v", a1.Captured(), a2.Captured())
	}
	// After the final epoch closed, every embedded network must be idle
	// and fully drained — the epoch-close half of the invariant.
	if len(em.Subs()) != 2 {
		t.Fatalf("expected 2 embedded sub-networks, got %d", len(em.Subs()))
	}
	for _, sub := range em.Subs() {
		if !sub.Idle() {
			t.Errorf("sub AS %d still busy at end of run", sub.AS)
		}
		if got, want := sub.Def.StateSize(), sub.Baseline(); got != want {
			t.Errorf("end of run: sub AS %d state %d != baseline %d", sub.AS, got, want)
		}
		if sub.Tracebacks == 0 {
			t.Errorf("sub AS %d ran no tracebacks", sub.AS)
		}
	}
}
