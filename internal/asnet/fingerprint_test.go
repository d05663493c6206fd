package asnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
)

// fullTopoFingerprint runs one fixed-seed scenario on a generated
// full topology (meshed transit core, stubs, several dispersed
// attackers, progressive mode) and folds everything observable into a
// string: the exact capture sequence and every defense counter.
func fullTopoFingerprint(t *testing.T) string {
	t.Helper()
	sim := des.New()
	g := NewGraph(sim)
	_, stubs, err := GenerateTopology(g, TopoParams{Transits: 10, Stubs: 16, ExtraLinks: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	def := NewDefense(g, 10, Config{Progressive: true, Rho: 8})
	def.DeployAll()
	sched := testSchedule(t, 10, 120)
	srv := NewServer(def, stubs[0], sched)

	fp := ""
	def.OnCapture = func(c Capture) {
		fp += fmt.Sprintf("cap as=%d t=%.9f;", c.AS, c.Time)
	}
	// Dispersed attackers with staggered starts and distinct rates, so
	// sessions overlap and the control plane carries real concurrency.
	for i, stub := range stubs[1:6] {
		atk := NewAttacker(def, stub, srv, 5+float64(3*i))
		start := 0.5 + 0.7*float64(i)
		sim.At(start, func() { atk.Start() })
	}
	if err := sim.RunUntil(1200); err != nil {
		t.Fatal(err)
	}
	fp += fmt.Sprintf("msg=%d ingress=%d lease=%d peak=%d reports=%d sec=%+v",
		def.MsgSent, def.IngressLookups, def.LeaseExpiries, def.PeakState,
		srv.ReportsReceived, def.Sec)
	return fp
}

// TestFullTopologyFingerprint pins determinism on the as-level layer
// the way the tree experiments already do: two fixed-seed runs over a
// generated full topology (not just a chain) must agree bit-for-bit on
// the capture sequence and every counter. This is the regression net
// under the sorted iteration in closeSession and the shared
// hbp.Controller's close/sweep/re-seed fan-outs — a reintroduced
// map-order leak shows up here as a flaky diff.
func TestFullTopologyFingerprint(t *testing.T) {
	a := fullTopoFingerprint(t)
	b := fullTopoFingerprint(t)
	if a != b {
		t.Fatalf("same seed produced different runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "cap as=") {
		t.Fatalf("scenario captured nothing; fingerprint pins too little: %s", a)
	}
}
