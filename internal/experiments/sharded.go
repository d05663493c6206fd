package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ForestConfig specifies a sharded forest scenario: K independent
// victim trees (one per cluster part), each running the full HBP
// defense against its own attackers, joined in a ring of cross-part
// links that carry background traffic between the trees. Unlike the
// single-tree scenarios — whose defense couples every router and so
// cannot be cut — the forest decomposes cleanly, making it both the
// determinism stress test (the fingerprint must be bit-identical at
// every shard count) and the workload where sharding actually buys
// wall-clock speedup.
type ForestConfig struct {
	// Parts is the number of independent trees (cluster parts).
	Parts int
	// Shards is the engine width; parts are placed round-robin.
	// 0 or 1 runs everything on a single shard.
	Shards int
	// LeavesPerPart / AttackersPerPart size each tree's population.
	LeavesPerPart    int
	AttackersPerPart int
	// AttackRate is the per-attacker rate in bits/s.
	AttackRate float64
	// CrossRate is the per-flow rate of the inter-tree background
	// traffic in bits/s; 0 disables cross traffic.
	CrossRate float64
	// PacketSize is the data packet size in bytes for all sources.
	PacketSize int
	// Duration, AttackStart and AttackEnd shape the run.
	Duration    float64
	AttackStart float64
	AttackEnd   float64
	// Seed drives every stream in the run; per-part streams are
	// derived with des.DeriveSeed under stable labels, so behavior is
	// a function of the seed and never of part placement.
	Seed int64
	// Context, when non-nil, cancels the run cooperatively (see
	// TreeConfig.Context).
	Context context.Context `json:"-"`
}

// DefaultForestConfig returns a 4-tree forest sized so unit tests and
// benchmarks finish quickly.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		Parts:            4,
		Shards:           1,
		LeavesPerPart:    30,
		AttackersPerPart: 5,
		AttackRate:       0.1e6,
		CrossRate:        0.05e6,
		PacketSize:       500,
		Duration:         40,
		AttackStart:      5,
		AttackEnd:        35,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c ForestConfig) Validate() error {
	switch {
	case c.Parts < 1:
		return fmt.Errorf("experiments: forest needs at least one part, got %d", c.Parts)
	case c.Shards < 0:
		return fmt.Errorf("experiments: negative shard count %d", c.Shards)
	case c.LeavesPerPart < 2:
		return fmt.Errorf("experiments: %d leaves per part (need clients and attackers)", c.LeavesPerPart)
	case c.AttackersPerPart < 0 || c.AttackersPerPart >= c.LeavesPerPart:
		return fmt.Errorf("experiments: %d attackers among %d leaves", c.AttackersPerPart, c.LeavesPerPart)
	case c.AttackRate <= 0 && c.AttackersPerPart > 0:
		return fmt.Errorf("experiments: non-positive attack rate")
	case c.CrossRate < 0:
		return fmt.Errorf("experiments: negative cross-traffic rate")
	case c.PacketSize <= 0:
		return fmt.Errorf("experiments: non-positive packet size")
	}
	return checkTiming(c.Duration, c.AttackStart, c.AttackEnd)
}

// ForestResult summarizes one sharded forest run. Its fingerprint lines
// carry each part's cross-traffic delivery hash and served bytes
// besides the capture schedule.
type ForestResult struct {
	Config ForestConfig
	// SinkDelivered is the per-part count of cross-traffic packets
	// delivered to that part's sink.
	SinkDelivered []int64
	// ServedBytes sums legitimate payload accepted by all servers.
	ServedBytes int64
	shardedRun
}

// forestPart is the per-tree state of a forest run.
type forestPart struct {
	partDefense
	tree *topology.Tree
	sink *netsim.Node

	agents    []*roaming.ServerAgent
	sinkCount int64
	sinkHash  uint64
}

// RunShardedForest executes one forest scenario end to end on a
// conservative-lookahead sharded engine.
//
// Build order is fixed and placement-independent: all trees and sinks
// first (nodes and intra-part links in creation order), then the ring
// of cross links, then global routes, then per-part workloads with
// RNG streams derived from stable (seed, label) pairs. That ordering
// discipline — plus the cluster rule that cut edges are channel-routed
// even when both parts share a shard — is what makes the result
// fingerprint bit-identical at every shard count.
func RunShardedForest(cfg ForestConfig) (*ForestResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ss := newSharded(cfg.Context, cfg.Seed, cfg.Shards)
	place := make([]int, cfg.Parts)
	for i := range place {
		place[i] = i % ss.Shards()
	}
	cl := netsim.NewCluster(ss, place)

	// Phase 1: topology. Each part grows its own paper-style tree plus
	// a sink host for inbound cross traffic.
	parts := make([]*forestPart, cfg.Parts)
	defs := make([]*partDefense, cfg.Parts)
	for i := range parts {
		p := topology.DefaultParams()
		p.Leaves = cfg.LeavesPerPart
		p.Servers = 3
		p.Seed = des.DeriveSeed(cfg.Seed, int64(500+i))
		tr := topology.GrowTree(cl, i, p)
		sink := cl.AddNode(i, fmt.Sprintf("sink%d", i))
		cl.Connect(tr.Root, sink, p.ServerLink.Bandwidth, p.ServerLink.Delay)
		parts[i] = &forestPart{tree: tr, sink: sink}
		defs[i] = &parts[i].partDefense
	}
	// Ring of cross-part links between tree roots. Its delay is the
	// conservative lookahead, so it is deliberately a long-haul link.
	// Two parts get a single link (a 2-ring would duplicate it).
	if cfg.Parts > 1 {
		ring := cfg.Parts
		if cfg.Parts == 2 {
			ring = 1
		}
		for i := 0; i < ring; i++ {
			cl.Connect(parts[i].tree.Root, parts[(i+1)%cfg.Parts].tree.Root, 50e6, 0.01)
		}
	}
	cl.ComputeRoutes()

	// Phase 2: per-part workload and defense.
	res := &ForestResult{Config: cfg, SinkDelivered: make([]int64, cfg.Parts)}
	for i, pt := range parts {
		pt := pt
		tr := pt.tree
		sim := cl.Part(i).Sim
		pool, err := roaming.NewPool(sim, tr.Servers, roaming.Config{
			N: len(tr.Servers), K: 2, EpochLen: 5, Guard: 0.3, Epochs: 64,
			ChainSeed: []byte(fmt.Sprintf("forest-part-%d", i)),
		})
		if err != nil {
			return nil, err
		}
		sink := pt.sink
		isHost := func(n *netsim.Node) bool { return tr.IsHost(n) || n == sink }
		pt.def, pt.agents, err = deployHBP(tr.Net, pool, tr.Servers, isHost, core.Config{}, pt.record, nil)
		if err != nil {
			return nil, err
		}
		sink.Handler = func(p *netsim.Packet, in *netsim.Port) {
			pt.sinkCount++
			pt.sinkHash = pt.sinkHash*1099511628211 ^
				math.Float64bits(sim.Now()) ^ uint64(p.Src)<<32 ^ uint64(p.Seq)
		}

		rng := des.NewRNG(des.DeriveSeed(cfg.Seed, int64(700+i)))
		attackHosts, clientHosts := tr.PlaceAttackers(
			cfg.AttackersPerPart, topology.Even, des.DeriveSeed(cfg.Seed, int64(600+i)))

		src, err := newTreeSources(tr, clientHosts, attackHosts, pool,
			0.9*tr.Bottleneck.Bandwidth, cfg.AttackRate, cfg.PacketSize, nil, rng)
		if err != nil {
			return nil, err
		}

		// Cross traffic: the first few clients also stream to the next
		// part's sink, keeping the cut links busy for the whole run.
		var crossFlows []starter
		if cfg.Parts > 1 && cfg.CrossRate > 0 {
			dst := parts[(i+1)%cfg.Parts].sink.ID
			for j := 0; j < 3 && j < len(clientHosts); j++ {
				crossFlows = append(crossFlows, &traffic.CBR{
					Node: clientHosts[j], Rate: cfg.CrossRate, Size: cfg.PacketSize,
					Dest:  func() netsim.NodeID { return dst },
					Legit: true, FlowID: 1 + j,
					Jitter: rng.Split(int64(900 + j)),
				})
			}
		}

		pool.Start()
		src.schedule(sim, pool.Config().EpochLen, cfg.AttackStart, cfg.AttackEnd, crossFlows...)
	}

	err := res.run("forest", cl, defs, cfg.Duration, func(i int) string {
		pt := parts[i]
		var served int64
		for _, sa := range pt.agents {
			served += sa.Stats.ServedBytes
		}
		res.SinkDelivered[i] = pt.sinkCount
		res.ServedBytes += served
		return fmt.Sprintf("sink=%d:%016x served=%d", pt.sinkCount, pt.sinkHash, served)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ExtSharded is the parallel-engine study: the same forest run at
// increasing shard counts, checking the determinism invariant
// (bit-identical fingerprint, identical event count) and reporting
// the wall-clock speedup. Real speedups need real cores — on a
// single-CPU host every row runs at about the 1-shard rate.
func ExtSharded(s Scale) (*Table, error) {
	cfg := DefaultForestConfig()
	cfg.Parts = 8
	cfg.Context = s.Ctx
	if s.Leaves > 0 {
		cfg.LeavesPerPart = max(s.Leaves/8, 10)
	}
	if s.TimeFactor > 0 && s.TimeFactor != 1 {
		cfg.Duration *= s.TimeFactor
		cfg.AttackEnd *= s.TimeFactor
	}
	t := &Table{
		Title: "Parallel engine: sharded forest determinism and speedup",
		Note: "One HBP tree per part, ring cross traffic; fingerprints must be " +
			"bit-identical at every shard count. Speedup is vs the 1-shard run " +
			"on this host's cores.",
		Headers: []string{"shards", "parts", "events", "captures", "wall(s)", "speedup", "identical"},
	}
	var refFP string
	var refWall time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		cfg.Shards = shards
		res, err := RunShardedForest(cfg)
		if err != nil {
			return nil, err
		}
		if !res.Leak.Clean() {
			return nil, fmt.Errorf("experiments: forest leak at %d shards: %+v", shards, res.Leak)
		}
		identical := "ref"
		if shards == 1 {
			refFP = res.Fingerprint()
			refWall = res.Wall
		} else if res.Fingerprint() == refFP {
			identical = "yes"
		} else {
			identical = "NO"
		}
		speedup := float64(refWall) / float64(res.Wall)
		t.AddRow(shards, cfg.Parts, fmt.Sprint(res.EventsFired), res.Captures,
			fmt.Sprintf("%.2f", res.Wall.Seconds()), fmt.Sprintf("%.2fx", speedup), identical)
	}
	return t, nil
}
