package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"regexp"
	"testing"
	"time"
)

func quickForestConfig() ForestConfig {
	cfg := DefaultForestConfig()
	cfg.Parts = 4
	cfg.LeavesPerPart = 12
	cfg.AttackersPerPart = 3
	cfg.Duration = 20
	cfg.AttackStart = 2
	cfg.AttackEnd = 18
	return cfg
}

// TestForestFingerprintAcrossShards is the headline invariant of the
// parallel engine at full-model scale: the same forest — HBP defenses,
// roaming pools, attackers, cross traffic — produces a bit-identical
// fingerprint and event count whether it runs on 1 shard or spread
// over 8.
func TestForestFingerprintAcrossShards(t *testing.T) {
	cfg := quickForestConfig()
	ref, err := RunShardedForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Captures == 0 {
		t.Fatal("no captures: the defense was not exercised")
	}
	for i, d := range ref.SinkDelivered {
		if d == 0 {
			t.Fatalf("part %d's sink received no cross traffic: the cut links were not exercised", i)
		}
	}
	if !ref.Leak.Clean() {
		t.Fatalf("reference run leaked: %+v", ref.Leak)
	}
	refFP := ref.Fingerprint()

	for _, shards := range []int{2, 4, 8} {
		cfg.Shards = shards
		res, err := RunShardedForest(cfg)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got := res.Fingerprint(); got != refFP {
			t.Fatalf("%d shards diverged from the 1-shard run\n--- 1 shard\n%s\n--- %d shards\n%s", shards, refFP, shards, got)
		}
		if res.EventsFired != ref.EventsFired {
			t.Fatalf("%d shards fired %d events, 1 shard fired %d", shards, res.EventsFired, ref.EventsFired)
		}
		if !res.Leak.Clean() {
			t.Fatalf("%d shards leaked: %+v", shards, res.Leak)
		}
	}

	cfg.Shards = 1
	cfg.Seed = 2
	other, err := RunShardedForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == refFP {
		t.Fatal("different seed produced an identical fingerprint")
	}
}

// TestForestCancellation aborts a sharded run through its Context — a
// cancelled one before the first window, an expiring one mid-run — and
// checks the abort path: a wrapped context error, promptly.
func TestForestCancellation(t *testing.T) {
	cfg := quickForestConfig()
	cfg.Shards = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Context = ctx
	if _, err := RunShardedForest(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: want context.Canceled, got %v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cfg.Context = ctx
	start := time.Now()
	_, err := RunShardedForest(cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expiring context: want context.DeadlineExceeded, got %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("run took %v to notice its deadline", took)
	}
}

// TestForestValidate covers the config error paths.
func TestForestValidate(t *testing.T) {
	for name, mut := range map[string]func(*ForestConfig){
		"no-parts":          func(c *ForestConfig) { c.Parts = 0 },
		"negative-shards":   func(c *ForestConfig) { c.Shards = -1 },
		"too-few-leaves":    func(c *ForestConfig) { c.LeavesPerPart = 1 },
		"too-many-zombies":  func(c *ForestConfig) { c.AttackersPerPart = c.LeavesPerPart },
		"bad-window":        func(c *ForestConfig) { c.AttackStart = c.AttackEnd },
		"negative-cross":    func(c *ForestConfig) { c.CrossRate = -1 },
		"zero-packet-size":  func(c *ForestConfig) { c.PacketSize = 0 },
		"zero-attack-rate":  func(c *ForestConfig) { c.AttackRate = 0 },
		"inverted-duration": func(c *ForestConfig) { c.Duration = -1 },
	} {
		cfg := DefaultForestConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
}

// TestForestGoldenFingerprint pins the forest to recorded values, so a
// change to how parts are built (topology.GrowTree: node IDs, port
// order, link order) or routed cannot move a single event unnoticed —
// the across-shards test would not see it, both sides moving together.
func TestForestGoldenFingerprint(t *testing.T) {
	for _, want := range []struct {
		seed     int64
		events   uint64
		captures int
		digest   string
	}{
		{1, 3542021, 22, "5b51f930d3ecd0b6be644fc604a85827ddf8b66970320a36fe119bac346dae3b"},
		{7, 3548572, 17, "43d098a7797324a38933af0ad06725bf238c1d0243825a13c6cbd84a3d566df9"},
	} {
		cfg := DefaultForestConfig()
		cfg.Parts = 8
		cfg.LeavesPerPart = 16
		cfg.AttackersPerPart = 3
		cfg.Duration = 20
		cfg.AttackStart = 2
		cfg.AttackEnd = 18
		cfg.Shards = 2
		cfg.Seed = want.seed
		res, err := RunShardedForest(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digest := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint())))
		if res.EventsFired != want.events || res.Captures != want.captures || digest != want.digest {
			t.Errorf("seed %d: %d events, %d captures, sha256 %s; want %d, %d, %s",
				want.seed, res.EventsFired, res.Captures, digest, want.events, want.captures, want.digest)
		}
	}
}

// TestForestCapturesEveryAttackerGivenTime settles the 22-of-24 the
// golden run above (and hbpbench's forest-sharded capture_frac
// 0.916667) records: it is the 20 s horizon, not a defect. Each part's
// pool has N=3 servers with K=2 active and 5 s epochs, so a targeted
// server is a honeypot only one epoch in three and a 16 s attack gives
// some zombies too few honeypot epochs to be traced to their access
// port. The same forest, seed and shard width with a 36 s attack
// captures all 24, each once.
func TestForestCapturesEveryAttackerGivenTime(t *testing.T) {
	cfg := DefaultForestConfig()
	cfg.Parts = 8
	cfg.LeavesPerPart = 16
	cfg.AttackersPerPart = 3
	cfg.Duration = 40
	cfg.AttackStart = 2
	cfg.AttackEnd = 38
	cfg.Shards = 2
	cfg.Seed = 1
	res, err := RunShardedForest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attackers := map[string]bool{}
	for _, m := range regexp.MustCompile(`>(\d+)`).FindAllStringSubmatch(res.Fingerprint(), -1) {
		attackers[m[1]] = true
	}
	if want := cfg.Parts * cfg.AttackersPerPart; res.Captures != want || len(attackers) != want {
		t.Fatalf("%d captures of %d distinct attackers, want %d of %d", res.Captures, len(attackers), want, want)
	}
	if res.EventsFired != 7073903 {
		t.Errorf("%d events, want 7073903", res.EventsFired)
	}
}
