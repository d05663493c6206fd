package spie

import (
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func TestBloomBasics(t *testing.T) {
	b := NewBloom(1<<12, 4)
	digests := []uint64{1, 42, 0xDEADBEEF, 1 << 60}
	for _, d := range digests {
		if b.Contains(d) {
			t.Fatalf("empty filter claims %x", d)
		}
		b.Add(d)
	}
	for _, d := range digests {
		if !b.Contains(d) {
			t.Fatalf("filter forgot %x (impossible for Bloom)", d)
		}
	}
	if b.Len() != len(digests) {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.Contains(42) || b.Len() != 0 || b.FillRatio() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestBloomNoFalseNegativesProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		b := NewBloom(1<<10, 3)
		for _, d := range raw {
			b.Add(d)
		}
		for _, d := range raw {
			if !b.Contains(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	b := NewBloom(1<<14, 4)
	for i := uint64(0); i < 1000; i++ {
		b.Add(DigestFields(int64(i), 1, 2, 3, 4))
	}
	fp := 0
	probes := 10000
	for i := 0; i < probes; i++ {
		if b.Contains(DigestFields(int64(i+1_000_000), 9, 9, 9, 9)) {
			fp++
		}
	}
	// m/n ≈ 16 bits/element with k=4: theoretical FP ~ 0.24%; allow
	// generous slack.
	if rate := float64(fp) / float64(probes); rate > 0.02 {
		t.Fatalf("FP rate %.4f too high for 16 bits/element", rate)
	}
}

func TestBloomValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid bloom accepted")
		}
	}()
	NewBloom(0, 1)
}

func TestDigestInvariance(t *testing.T) {
	p := &netsim.Packet{Src: 5, TrueSrc: 7, Dst: 2, FlowID: 3, Seq: 11, Size: 500, TTL: 250, Mark: 0x7}
	d1 := Digest(p)
	q := *p
	q.TTL = 90   // mutates in flight
	q.Mark = 0x3 // mutates in flight
	if Digest(&q) != d1 {
		t.Fatal("digest depends on mutable fields")
	}
	q2 := *p
	q2.Seq = 12
	if Digest(&q2) == d1 {
		t.Fatal("different packets share a digest deterministically")
	}
}

// spieRig: string topology with SPIE on every router and one spoofed
// packet sent from the attacker host.
func spieRig(t *testing.T, cfg Config) (*des.Simulator, *topology.Tree, *Deployment) {
	t.Helper()
	sim := des.New()
	tr := topology.NewString(sim, 8, 1, topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
	d := New(tr.Net, cfg)
	d.Deploy(tr.Routers)
	return sim, tr, d
}

func TestSinglePacketTraceback(t *testing.T) {
	sim, tr, d := spieRig(t, DefaultConfig())
	host := tr.Leaves[0]
	server := tr.Servers[0]
	var got *netsim.Packet
	var at float64
	server.Handler = func(p *netsim.Packet, in *netsim.Port) {
		cp := *p // the network reclaims p after the handler returns
		got, at = &cp, sim.Now()
	}
	// One spoofed packet — the whole point of single-packet traceback.
	sim.At(1, func() {
		host.Send(&netsim.Packet{Src: 31337, TrueSrc: host.ID, Dst: server.ID, Size: 700, Type: netsim.Data, Seq: 99})
	})
	if err := sim.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet lost")
	}
	firstHop := server.Ports()[0].Peer().Node() // gw
	res, err := d.Traceback(firstHop, Digest(got), at, 1.0, tr.IsHost)
	if err != nil {
		t.Fatal(err)
	}
	// The walk must end at the attacker's access router.
	last := res.Path[len(res.Path)-1]
	if last != tr.AccessRouter(host) {
		t.Fatalf("traceback ended at %v, want access router %v", last, tr.AccessRouter(host))
	}
	if res.Ambiguous {
		t.Fatal("single flow on a string cannot be ambiguous with large filters")
	}
	// Full path length: gw + 8 string routers.
	if len(res.Path) != 9 {
		t.Fatalf("path length %d, want 9", len(res.Path))
	}
}

func TestTracebackExpiresWithWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowLen = 1
	cfg.Windows = 2 // only 2 s of history
	sim, tr, d := spieRig(t, cfg)
	host := tr.Leaves[0]
	server := tr.Servers[0]
	var got *netsim.Packet
	var at float64
	server.Handler = func(p *netsim.Packet, in *netsim.Port) {
		if got == nil {
			cp := *p // the network reclaims p after the handler returns
			got, at = &cp, sim.Now()
		}
	}
	sim.At(1, func() {
		host.Send(&netsim.Packet{Src: 31337, TrueSrc: host.ID, Dst: server.ID, Size: 700, Type: netsim.Data, Seq: 1})
	})
	if err := sim.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	// Keep traffic flowing so the rings rotate past the old windows.
	sim.Every(3, 0.05, func() {
		host.Send(&netsim.Packet{Src: host.ID, TrueSrc: host.ID, Dst: server.ID, Size: 100, Type: netsim.Data, Seq: 1000})
	})
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	firstHop := server.Ports()[0].Peer().Node()
	if _, err := d.Traceback(firstHop, Digest(got), at, 1.0, tr.IsHost); err == nil {
		t.Fatal("traceback succeeded on an expired digest")
	}
}

func TestTracebackAmbiguityWithTinyFilters(t *testing.T) {
	// Saturated filters answer yes to everything: the walk still
	// terminates and flags ambiguity on a branching topology.
	sim := des.New()
	p := topology.DefaultParams()
	p.Leaves = 40
	tr := topology.NewTree(sim, p)
	cfg := DefaultConfig()
	cfg.BloomBits = 64 // absurdly small
	cfg.BloomHashes = 2
	d := New(tr.Net, cfg)
	d.Deploy(tr.Routers)

	server := tr.Servers[0]
	var got *netsim.Packet
	var at float64
	server.Handler = func(pk *netsim.Packet, in *netsim.Port) {
		cp := *pk // the network reclaims pk after the handler returns
		got, at = &cp, sim.Now()
	}
	// Background traffic with unique sequence numbers saturates every
	// router's tiny filter with distinct digests.
	seq := int64(0)
	for _, leaf := range tr.Leaves {
		leaf := leaf
		sim.Every(0.01, 0.05, func() {
			seq++
			leaf.Send(&netsim.Packet{Src: leaf.ID, TrueSrc: leaf.ID, Dst: server.ID, Size: 100, Type: netsim.Data, Seq: seq})
		})
	}
	if err := sim.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no traffic arrived")
	}
	firstHop := server.Ports()[0].Peer().Node()
	res, err := d.Traceback(firstHop, Digest(got), at, 1.0, tr.IsHost)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ambiguous {
		t.Fatal("saturated 64-bit filters on a branching tree should be ambiguous")
	}
}

func TestStorageAccounting(t *testing.T) {
	cfg := DefaultConfig()
	sim := des.New()
	tr := topology.NewString(sim, 3, 1, topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
	d := New(tr.Net, cfg)
	d.Deploy(tr.Routers)
	want := cfg.Windows * cfg.BloomBits
	if d.BitsPerRouter() != want {
		t.Fatalf("BitsPerRouter = %d, want %d", d.BitsPerRouter(), want)
	}
	// HBP's per-session state is a handful of counters; SPIE's is
	// hundreds of kilobits. The accounting should reflect that gap.
	if d.BitsPerRouter() < 1<<17 {
		t.Fatalf("default SPIE table suspiciously small: %d bits", d.BitsPerRouter())
	}
}

func TestDeployIdempotent(t *testing.T) {
	sim := des.New()
	tr := topology.NewString(sim, 3, 1, topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
	d := New(tr.Net, DefaultConfig())
	d.Deploy(tr.Routers)
	d.Deploy(tr.Routers) // second deploy must not double-record
	host := tr.Leaves[0]
	server := tr.Servers[0]
	server.Handler = func(p *netsim.Packet, in *netsim.Port) {}
	sim.At(1, func() {
		host.Send(&netsim.Packet{Src: host.ID, TrueSrc: host.ID, Dst: server.ID, Size: 100, Type: netsim.Data})
	})
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	// 4 routers on the path (gw + r0..r2): one record each.
	if d.Recorded != 4 {
		t.Fatalf("Recorded = %d, want 4 (double deploy double-counts?)", d.Recorded)
	}
}
