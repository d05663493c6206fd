package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// requireMemoIntact fails unless every active set the pool hands out
// still equals a fresh derivation from its chain. Consumers share the
// memoized slices, so one that edits the set it was given shows here.
func requireMemoIntact(t *testing.T, what string, pool *roaming.Pool) {
	t.Helper()
	cfg := pool.Config()
	for e := 0; e < cfg.Epochs; e++ {
		got, err := pool.ActiveSetAt(e)
		if err != nil {
			t.Fatal(err)
		}
		key, err := pool.Chain().Key(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := roaming.ActiveServers(key, pool.Servers(), cfg.K); !slices.Equal(got, want) {
			t.Fatalf("%s: epoch %d memoized as %v after the run, chain gives %v", what, e, got, want)
		}
	}
}

// TestSharedActiveSetsStayIntact runs every consumer of a pool's shared
// active sets — roaming clients, a schedule-following attacker, server
// agents and progressive pre-arming on a quick-scale tree, the legit
// macro flows of a small internet run — and then requires each memoized
// set to be unchanged.
func TestSharedActiveSetsStayIntact(t *testing.T) {
	cfg := QuickScale().treeConfig()
	cfg.Duration, cfg.AttackEnd = 60, 55
	sim := des.New()
	tr := topology.NewTree(sim, cfg.Topology)
	pool, err := roaming.NewPool(sim, tr.Servers, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	attackHosts, clientHosts := tr.PlaceAttackers(cfg.NumAttackers, cfg.Placement, cfg.Seed)
	def, _, err := deployHBP(tr.Net, pool, tr.Servers, tr.IsHost, core.Config{Progressive: true}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(cfg.Seed)
	src, err := newTreeSources(tr, clientHosts, attackHosts[1:], pool,
		cfg.LegitFraction*cfg.Topology.Bottleneck.Bandwidth, cfg.AttackRate, cfg.PacketSize, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	follower := traffic.NewFollower(attackHosts[0], pool, traffic.AttackerConfig{
		Rate: cfg.AttackRate, Size: cfg.PacketSize, SpoofSpace: nodeIDs(tr.Leaves),
	}, 0.5, rng)
	pool.Start()
	src.schedule(sim, cfg.Pool.EpochLen, cfg.AttackStart, cfg.AttackEnd, follower)
	if err := sim.RunUntil(cfg.Duration); err != nil {
		t.Fatal(err)
	}
	if len(def.Captures()) == 0 {
		t.Fatal("tree run captured nobody: the defense never read the schedule")
	}
	def.Close()
	tr.Net.Drain()
	requireMemoIntact(t, "tree", pool)

	r, err := buildInternet(smallInternet())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LegitSent == 0 {
		t.Fatal("internet run sent no legitimate traffic")
	}
	for i, pt := range r.parts {
		requireMemoIntact(t, fmt.Sprintf("internet part %d", i), pt.pool)
	}
}
