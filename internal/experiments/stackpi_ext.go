package experiments

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stackpi"
	"repro/internal/topology"
)

// StackPiPoint is one row of the StackPi accuracy sweep.
type StackPiPoint struct {
	Attackers      int
	LearnedMarks   int
	FalsePositives float64
	FalseNegatives float64
}

// RunStackPi measures StackPi filter accuracy on a tree with the
// given number of dispersed attackers: train on each attacker's path
// mark, then evaluate every client path and a second spoofed packet
// per attacker.
func RunStackPi(ctx context.Context, leaves, nAttackers int, seed int64) (*StackPiPoint, error) {
	sim := newSim(ctx)
	p := topology.DefaultParams()
	p.Leaves = leaves
	p.Seed = seed
	tr := topology.NewTree(sim, p)
	m := &stackpi.Marker{}
	m.Deploy(tr.Routers)
	dst := tr.Servers[0].ID

	mark := func(leaf *netsim.Node, spoof bool) (int, error) {
		got := -1
		server := tr.Net.Node(dst)
		server.Handler = func(pk *netsim.Packet, in *netsim.Port) { got = pk.Mark }
		src := leaf.ID
		if spoof {
			src = netsim.NodeID(90000)
		}
		sim.At(sim.Now(), func() {
			leaf.Send(&netsim.Packet{Src: src, TrueSrc: leaf.ID, Dst: dst, Size: 100, Type: netsim.Data})
		})
		if err := sim.RunUntil(sim.Now() + 2); err != nil {
			return 0, err
		}
		if got < 0 {
			return 0, fmt.Errorf("experiments: stackpi probe lost")
		}
		return got, nil
	}

	attackers, clients := tr.PlaceAttackers(nAttackers, topology.Even, seed)
	f := stackpi.NewFilter()
	var acc metrics.FilterAccuracy
	for _, a := range attackers {
		mk, err := mark(a, true)
		if err != nil {
			return nil, err
		}
		f.Learn(mk)
	}
	for _, c := range clients {
		mk, err := mark(c, false)
		if err != nil {
			return nil, err
		}
		acc.Observe(true, f.Check(&netsim.Packet{Mark: mk, Type: netsim.Data}))
	}
	// Attack packets with fresh spoofed sources still carry the same
	// path marks; they must be caught (or counted as FN).
	for _, a := range attackers {
		mk, err := mark(a, true)
		if err != nil {
			return nil, err
		}
		acc.Observe(false, f.Check(&netsim.Packet{Mark: mk, Type: netsim.Data}))
	}
	return &StackPiPoint{
		Attackers:      nAttackers,
		LearnedMarks:   f.LearnedMarks(),
		FalsePositives: acc.FalsePositiveRate(),
		FalseNegatives: acc.FalseNegativeRate(),
	}, nil
}

// ExtStackPi sweeps the attacker count and reports StackPi filter
// accuracy — reproducing the Sec. 2 claim that the scheme's accuracy
// "deteriorates with a large number of dispersed attackers", in
// contrast to HBP's exact honeypot signature.
func ExtStackPi(scale Scale) (*Table, error) {
	leaves := max(scale.Leaves, 40)
	t := &Table{
		Title: "Extension — StackPi victim-side filter accuracy vs dispersed attackers",
		Note: fmt.Sprintf("%d-leaf tree, 16-bit marks, 2 bits/hop; FP = legitimate traffic wrongly dropped "+
			"(HBP's honeypot signature has FP = 0 by construction)", leaves),
		Headers: []string{"attackers", "learned marks", "FP rate %", "FN rate %"},
	}
	for _, n := range []int{leaves / 24, leaves / 8, leaves / 4, leaves / 2} {
		if n < 1 {
			continue
		}
		pt, err := RunStackPi(scale.Ctx, leaves, n, 4)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			pt.Attackers,
			pt.LearnedMarks,
			fmt.Sprintf("%.1f", 100*pt.FalsePositives),
			fmt.Sprintf("%.1f", 100*pt.FalseNegatives),
		)
	}
	return t, nil
}
