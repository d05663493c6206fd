package experiments

import (
	"context"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/spie"
	"repro/internal/topology"
)

// SPIEPoint is one row of the SPIE storage/accuracy trade-off sweep.
type SPIEPoint struct {
	BloomBits     int
	BitsPerRouter int
	Correct       int
	Ambiguous     int
	Failed        int
	Total         int
}

// RunSPIE traces one spoofed packet per attacker through a tree with
// background client traffic, for the given per-window filter size,
// and scores the reconstructions.
func RunSPIE(ctx context.Context, leaves, nAttackers, bloomBits int, seed int64) (*SPIEPoint, error) {
	sim := newSim(ctx)
	p := topology.DefaultParams()
	p.Leaves = leaves
	p.Seed = seed
	tr := topology.NewTree(sim, p)
	cfg := spie.DefaultConfig()
	cfg.BloomBits = bloomBits
	d := spie.New(tr.Net, cfg)
	d.Deploy(tr.Routers)

	server := tr.Servers[0]
	type sample struct {
		pkt netsim.Packet // copied: the network reclaims p after delivery
		at  float64
	}
	var samples []sample
	wantSample := map[int64]bool{}
	server.Handler = func(pk *netsim.Packet, in *netsim.Port) {
		if wantSample[pk.Seq] && !pk.Legit {
			samples = append(samples, sample{pkt: *pk, at: sim.Now()})
			delete(wantSample, pk.Seq)
		}
	}

	attackers, clients := tr.PlaceAttackers(nAttackers, topology.Even, seed)
	// Background: clients at ~10 pkt/s each with unique sequence
	// numbers (digest diversity).
	seq := int64(1000000)
	for _, c := range clients {
		c := c
		sim.Every(0.01, 0.1, func() {
			seq++
			c.Send(&netsim.Packet{Src: c.ID, TrueSrc: c.ID, Dst: server.ID, Size: 500, Type: netsim.Data, Legit: true, Seq: seq})
		})
	}
	// Each attacker emits one marked probe packet at t=2.
	for i, a := range attackers {
		a := a
		probeSeq := int64(i + 1)
		wantSample[probeSeq] = true
		sim.At(2+float64(i)*0.01, func() {
			a.Send(&netsim.Packet{Src: 55555, TrueSrc: a.ID, Dst: server.ID, Size: 777, Type: netsim.Data, Seq: probeSeq})
		})
	}
	if err := sim.RunUntil(4); err != nil {
		return nil, err
	}

	accessOf := map[int64]*netsim.Node{}
	for i, a := range attackers {
		accessOf[int64(i+1)] = tr.AccessRouter(a)
	}
	firstHop := server.Ports()[0].Peer().Node()
	pt := &SPIEPoint{BloomBits: bloomBits, BitsPerRouter: d.BitsPerRouter(), Total: len(samples)}
	for _, s := range samples {
		res, err := d.Traceback(firstHop, spie.Digest(&s.pkt), s.at, 1.0, tr.IsHost)
		if err != nil {
			pt.Failed++
			continue
		}
		last := res.Path[len(res.Path)-1]
		if last == accessOf[s.pkt.Seq] && !res.Ambiguous {
			pt.Correct++
		} else if res.Ambiguous {
			pt.Ambiguous++
		} else {
			pt.Failed++
		}
	}
	return pt, nil
}

// ExtSPIE quantifies the Sec. 2 trade-off of single-packet traceback:
// accurate reconstruction needs large per-router digest tables, while
// honeypot back-propagation keeps only per-session counters.
func ExtSPIE(scale Scale) (*Table, error) {
	leaves := max(scale.Leaves, 40)
	n := leaves / 8
	t := &Table{
		Title: "Extension — SPIE single-packet traceback: storage vs accuracy",
		Note: fmt.Sprintf("%d-leaf tree, %d attackers, one spoofed probe each, client background traffic; "+
			"HBP needs no per-packet state at routers (Sec. 2's storage-overhead contrast)", leaves, n),
		Headers: []string{"bloom bits/window", "kbit/router", "correct", "ambiguous", "failed"},
	}
	for _, bits := range []int{1 << 9, 1 << 12, 1 << 16, 1 << 19} {
		pt, err := RunSPIE(scale.Ctx, leaves, n, bits, 4)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			pt.BloomBits,
			pt.BitsPerRouter/1024,
			fmt.Sprintf("%d/%d", pt.Correct, pt.Total),
			fmt.Sprintf("%d/%d", pt.Ambiguous, pt.Total),
			fmt.Sprintf("%d/%d", pt.Failed, pt.Total),
		)
	}
	return t, nil
}
