package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/topology"
)

// smallInternet shrinks a sweep point to test scale: 50 zombies among
// 2000 hosts across 100 ASes, 4 cluster parts on 2 shards.
func smallInternet() InternetConfig {
	cfg := InternetConfigFor(50, 1)
	cfg.Topology.Hosts = 2000
	cfg.Topology.Graph.ASes = 100
	cfg.Topology.Parts = 4
	cfg.Shards = 2
	return cfg
}

func TestInternetCaptures(t *testing.T) {
	res, err := RunInternet(smallInternet())
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures != 50 {
		t.Fatalf("captured %d of 50 zombies", res.Captures)
	}
	if len(res.CaptureTimes) != 50 {
		t.Fatalf("%d capture times for %d captures", len(res.CaptureTimes), res.Captures)
	}
	for i, ct := range res.CaptureTimes {
		if ct < 0 || ct > res.Config.AttackEnd-res.Config.AttackStart {
			t.Fatalf("capture %d at %v relative to attack start, outside the attack window", i, ct)
		}
		if i > 0 && ct < res.CaptureTimes[i-1] {
			t.Fatalf("capture times not sorted at %d: %v < %v", i, ct, res.CaptureTimes[i-1])
		}
	}
	// The attack must visibly dent legitimate goodput before the
	// frontier marches down and captures recover it; both means stay in
	// a sane utilization band.
	if res.MeanBefore <= res.MeanDuringAttack {
		t.Fatalf("attack did not degrade goodput: before %v, during %v", res.MeanBefore, res.MeanDuringAttack)
	}
	if res.MeanBefore < 0.3 || res.MeanBefore > 1.0 {
		t.Fatalf("pre-attack goodput %v outside sane band", res.MeanBefore)
	}
	if res.MeanDuringAttack < 0.1 {
		t.Fatalf("goodput collapsed to %v: defense ineffective", res.MeanDuringAttack)
	}
	if res.AttackSent == 0 || res.LegitSent == 0 {
		t.Fatalf("macro flows idle: attack %d, legit %d", res.AttackSent, res.LegitSent)
	}
	if res.CtrlMessages == 0 || res.PeakState == 0 {
		t.Fatalf("defense idle: ctrl %d, peak state %d", res.CtrlMessages, res.PeakState)
	}
	if !res.Leak.Clean() {
		t.Fatalf("teardown leaked: %+v", res.Leak)
	}
}

// TestInternetCapturesOnlyZombies is the paper's "no legitimate client
// is ever filtered" at internet scale: over three AS graphs and three
// traffic seeds each, at two dispersions, every capture names a zombie.
// Legitimate macro flows send only to the epoch's active servers, so no
// legitimate packet ever reaches a honeypot to be traced.
func TestInternetCapturesOnlyZombies(t *testing.T) {
	attackerRE := regexp.MustCompile(`>(\d+)`)
	for _, zombies := range []int{50, 1000} {
		for graph := int64(1); graph <= 3; graph++ {
			cfg := smallInternet()
			cfg.Zombies = zombies
			cfg.Topology.Graph.Seed = des.DeriveSeed(graph, 17)
			// The zombies are the hosts at an even stride over the host
			// population, as RunInternet picks them.
			it := topology.BuildInternet(des.NewSharded(1, 1), cfg.Topology)
			nh := len(it.HostAS)
			isZombie := map[string]bool{}
			for j := 0; j < zombies; j++ {
				isZombie[strconv.Itoa(int(it.HostID(j*nh/zombies)))] = true
			}
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Seed = seed
				res, err := RunInternet(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Captures == 0 {
					t.Fatalf("%d zombies, graph %d, seed %d: nothing captured; the property is vacuous", zombies, graph, seed)
				}
				for _, m := range attackerRE.FindAllStringSubmatch(res.Fingerprint(), -1) {
					if !isZombie[m[1]] {
						t.Fatalf("%d zombies, graph %d, seed %d: legitimate host %s captured", zombies, graph, seed, m[1])
					}
				}
			}
		}
	}
}

func TestInternetFingerprintAcrossShards(t *testing.T) {
	cfg := smallInternet()
	cfg.Topology.Parts = 5 // parts coprime to both widths
	var base *InternetResult
	for _, shards := range []int{1, 4} {
		cfg.Shards = shards
		res, err := RunInternet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Fingerprint() != base.Fingerprint() {
			t.Fatalf("fingerprint diverged at shards=%d:\n%s\nvs shards=1:\n%s",
				shards, res.Fingerprint(), base.Fingerprint())
		}
		if res.EventsFired != base.EventsFired {
			t.Fatalf("event count diverged at shards=%d: %d vs %d", shards, res.EventsFired, base.EventsFired)
		}
	}
}

func TestInternetConfigValidate(t *testing.T) {
	bad := []func(*InternetConfig){
		func(c *InternetConfig) { c.Zombies = c.Topology.Hosts + 1 },
		func(c *InternetConfig) { c.AttackRate = 0 },
		func(c *InternetConfig) { c.PacketSize = 0 },
		func(c *InternetConfig) { c.AttackStart = c.AttackEnd },
		func(c *InternetConfig) { c.PoolK = c.Topology.Servers },
		func(c *InternetConfig) { c.Shards = -1 },
		// Both used to pass validation and panic in GenerateASGraph.
		func(c *InternetConfig) { c.Topology.Graph.ASes = 1 },
		func(c *InternetConfig) { c.Topology.Graph.Gamma = 2 },
	}
	for i, mutate := range bad {
		cfg := smallInternet()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d passed validation", i)
		}
	}
	cfg := smallInternet()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
}

// vmHWM reads the process peak resident set from /proc in bytes.
func vmHWM(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "VmHWM:") {
			continue
		}
		fields := strings.Fields(sc.Text())
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("parse VmHWM from %q: %v", sc.Text(), err)
		}
		return kb << 10
	}
	t.Skip("VmHWM not present")
	return 0
}

// TestInternetScaleSmoke constructs the full 10⁶-endpoint sweep point —
// a million hosts across 20000 power-law ASes — computes routes and
// asserts the whole process peaks under 256 MiB; then does the same at
// ten times the hosts under 512 MiB. Hosts are reservations, so the
// budgets are a few flat arrays, not a node per host. Gated behind
// HBP_SCALE_SMOKE=1 so that the peak it reads is its own, not that of
// whatever test ran before it in the same process.
func TestInternetScaleSmoke(t *testing.T) {
	if os.Getenv("HBP_SCALE_SMOKE") != "1" {
		t.Skip("set HBP_SCALE_SMOKE=1 to run the 10⁶- and 10⁷-endpoint builds")
	}
	for _, c := range []struct {
		hosts int
		limit int64
	}{
		{1000000, 256 << 20},
		{10000000, 512 << 20},
	} {
		cfg := InternetConfigFor(c.hosts/2, 1)
		if cfg.Topology.Hosts != c.hosts {
			t.Fatalf("sweep point sized %d hosts, want %d", cfg.Topology.Hosts, c.hosts)
		}
		ss := des.NewSharded(cfg.Seed, cfg.Shards)
		it := topology.BuildInternet(ss, cfg.Topology)
		if kind := it.Cluster.RouteKind(); kind != "compressed" {
			t.Fatalf("%d-host build routed %q, want compressed", c.hosts, kind)
		}
		ids := len(it.Cluster.Nodes()) + len(it.HostAS)
		perID := float64(it.Cluster.RouteBytes()) / float64(ids)
		if perID >= 64 {
			t.Fatalf("routing state %.1f B per ID over %d addressable IDs, want < 64", perID, ids)
		}
		// Exercise a route end to end so the assertion covers a usable
		// table, not just a constructed one.
		if hops := it.Cluster.PathHops(it.Host(len(it.HostAS)-1).ID, it.Servers[0].ID); hops < 3 {
			t.Fatalf("host→server path %d hops", hops)
		}
		peak := vmHWM(t)
		t.Logf("%d hosts: %.1f B of routing state per ID, peak RSS %.0f MiB", c.hosts, perID, float64(peak)/(1<<20))
		if peak >= c.limit {
			t.Fatalf("%d hosts: peak RSS %d bytes (%.0f MiB) ≥ %d MiB budget", c.hosts, peak, float64(peak)/(1<<20), c.limit>>20)
		}
	}
}

// TestInternetGoldenFingerprint compares RunInternet with the commit
// before end hosts became reservations (netsim.Cluster.AddLeaves):
// every digest and simulated counter below was recorded there, with all
// 2000 and all 200 000 hosts built eagerly. hbpbench only compares
// Shards=2 with Shards=1 of one commit, so this is the test that
// compares a change to the internet run with its past. The bench cases
// are hbpbench's internet-scale input and are skipped under -short.
//
// The endpoints column is the mechanism, pinned since: how many hosts
// became nodes. It is the captured zombies and no other host. A
// capture blocks a zombie's access port, so the armed access router
// builds it; a packet expanded at an unarmed access router (the
// oracle's fallback for stub ASes attached straight to AS 0) enters
// with nil ingress and builds nothing.
func TestInternetGoldenFingerprint(t *testing.T) {
	small := func(seed int64) InternetConfig {
		cfg := smallInternet()
		cfg.Seed = seed
		return cfg
	}
	bench := func(shards int) InternetConfig {
		cfg := InternetConfigFor(100000, 1)
		cfg.Zombies = 10000
		cfg.Shards = shards
		return cfg
	}
	for _, c := range []struct {
		name      string
		cfg       InternetConfig
		long      bool
		sha       string
		events    uint64
		captures  int
		drops     int64
		ctrl      int64
		peakState int
		endpoints int
	}{
		{"small/seed1", small(1), false, "06e010efd08f8b857d34583a4dee73993f0a19b997c83ce65541b65a361e47e8", 507196, 50, 34404, 128, 62, 50},
		{"small/seed7", small(7), false, "d59420ff132ff4a75e12e498bb8cdf9e089090bd4a4528501df5fb0efaf687d0", 394170, 50, 6869, 128, 62, 50},
		{"bench/shards1", bench(1), true, "c6ea316b8d3854ac2832e10b7268739d13c575601e4361a75f7082a74f95e0bd", 576258, 10000, 42945, 8018, 4003, 10000},
		{"bench/shards2", bench(2), true, "c6ea316b8d3854ac2832e10b7268739d13c575601e4361a75f7082a74f95e0bd", 576258, 10000, 42945, 8018, 4003, 10000},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("200 000-host run")
			}
			res, err := RunInternet(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sha := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint()))); sha != c.sha {
				t.Errorf("fingerprint sha256 %s, want %s", sha, c.sha)
			}
			if res.EventsFired != c.events || res.Captures != c.captures || res.QueueDrops != c.drops ||
				res.CtrlMessages != c.ctrl || res.PeakState != c.peakState {
				t.Errorf("events %d captures %d drops %d ctrl %d peak-state %d, want %d %d %d %d %d",
					res.EventsFired, res.Captures, res.QueueDrops, res.CtrlMessages, res.PeakState,
					c.events, c.captures, c.drops, c.ctrl, c.peakState)
			}
			if res.Endpoints != c.endpoints {
				t.Errorf("%d of %d hosts materialised, want %d", res.Endpoints, res.Hosts, c.endpoints)
			}
			// Whatever the input: a capture shuts a real port, and an
			// endpoint exists only because an emitted packet needed it.
			if res.Endpoints < res.Captures || int64(res.Endpoints) > res.AttackSent+res.LegitSent {
				t.Errorf("%d endpoints for %d captures and %d emitted packets",
					res.Endpoints, res.Captures, res.AttackSent+res.LegitSent)
			}
			if !res.Leak.Clean() {
				t.Errorf("teardown leaked: %+v", res.Leak)
			}
		})
	}
}
