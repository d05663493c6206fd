package experiments

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// routedGraph is what a Network and a Cluster share for route checks.
type routedGraph interface {
	Nodes() []*netsim.Node
	ComputeRoutes()
	RouteKind() string
}

// checkRouteOracle recomputes g's routes under RouteAuto, expects the
// compressed table (every production generator builds forests), and
// compares its NextHop with the dense all-pairs BFS (RouteDense) for
// every ordered pair of g's nodes, plus an out-of-range destination.
// mode is g's Routing field. Reserved endpoints are left out: NextHop
// resolves them arithmetically and never consults the table.
func checkRouteOracle(t *testing.T, g routedGraph, mode *netsim.RouteMode) {
	t.Helper()
	nodes := g.Nodes()
	var bound netsim.NodeID
	for _, n := range nodes {
		bound = max(bound, n.ID+1)
	}
	lookup := func() [][]*netsim.Port {
		table := make([][]*netsim.Port, len(nodes))
		for i, n := range nodes {
			row := make([]*netsim.Port, bound+1)
			for dst := netsim.NodeID(-1); dst < bound; dst++ {
				row[dst+1] = n.NextHop(dst)
			}
			table[i] = row
		}
		return table
	}
	*mode = netsim.RouteAuto
	g.ComputeRoutes()
	if got := g.RouteKind(); got != "compressed" {
		t.Fatalf("RouteAuto built a %s table, want compressed", got)
	}
	auto := lookup()
	*mode = netsim.RouteDense
	g.ComputeRoutes()
	dense := lookup()
	*mode = netsim.RouteAuto
	g.ComputeRoutes()
	for i, n := range nodes {
		for j := range dense[i] {
			if auto[i][j] != dense[i][j] {
				t.Fatalf("NextHop(%d -> %d): compressed table says %s, dense says %s",
					n.ID, j-1, portName(auto[i][j]), portName(dense[i][j]))
			}
		}
	}
}

func portName(p *netsim.Port) string {
	if p == nil {
		return "no port"
	}
	return fmt.Sprintf("port %d of node %d", p.Index(), p.Node().ID)
}

// TestRouteOracle holds every generator production routes through to
// the dense oracle: the tree at each figure scale, the per-AS trees of
// the embedded intra-AS model, a small internet, and a two-part forest
// whose one cut link keeps it a pure tree.
func TestRouteOracle(t *testing.T) {
	for _, sc := range []struct {
		name string
		s    Scale
	}{{"quick", QuickScale()}, {"default", DefaultScale()}, {"full", FullScale()}} {
		s := sc.s
		t.Run("tree-"+sc.name, func(t *testing.T) {
			tr := topology.NewTree(des.New(), s.treeConfig().Topology)
			checkRouteOracle(t, tr.Net, &tr.Net.Routing)
		})
	}
	t.Run("intra-as", func(t *testing.T) {
		_, em := hierarchicalRun(t, 120)
		if len(em.Subs()) == 0 {
			t.Fatal("no per-AS network was built")
		}
		for _, sub := range em.Subs() {
			checkRouteOracle(t, sub.Tree.Net, &sub.Tree.Net.Routing)
		}
	})
	t.Run("internet", func(t *testing.T) {
		p := InternetConfigFor(1000, 3).Topology
		it := topology.BuildInternet(des.NewSharded(1, 2), p)
		checkRouteOracle(t, it.Cluster, &it.Cluster.Routing)
	})
	t.Run("grow-tree-cluster", func(t *testing.T) {
		cl := netsim.NewCluster(des.NewSharded(1, 2), []int{0, 1})
		var roots []*netsim.Node
		for part := 0; part < 2; part++ {
			p := topology.DefaultParams()
			p.Leaves = 40
			p.Seed = int64(part + 1)
			roots = append(roots, topology.GrowTree(cl, part, p).Root)
		}
		cl.Connect(roots[0], roots[1], 50e6, 0.01)
		checkRouteOracle(t, cl, &cl.Routing)
	})
}

// checkScenarioRoutes holds the tree a scenario runs on (built exactly
// as RunTree builds it) to the dense oracle, then runs the scenario and
// requires captures, so the table checked is one the run's traffic and
// traceback actually cross. NextHop is the table's only reader, so
// equal tables give the dense and compressed runs the same event stream.
func checkScenarioRoutes(t *testing.T, cfg TreeConfig) {
	t.Helper()
	tr := topology.NewTree(des.New(), cfg.Topology)
	checkRouteOracle(t, tr.Net, &tr.Net.Routing)
	res, err := RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captures) == 0 {
		t.Fatal("scenario captured nothing; the check pins too little")
	}
}

func TestRouteEquivalenceTree(t *testing.T) {
	cfg := quickTree()
	cfg.Duration, cfg.AttackEnd = 60, 55
	checkScenarioRoutes(t, cfg)
}

func TestRouteEquivalenceByzantine(t *testing.T) {
	cfg := quickTree()
	cfg.Duration, cfg.AttackEnd = 60, 55
	cfg.EpochAuth = true
	cfg.Watchdog = true
	cfg.ByzantineNodes = 2
	checkScenarioRoutes(t, cfg)
}
