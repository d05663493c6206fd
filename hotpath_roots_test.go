package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// exercisedRoots maps every //hbplint:hotpath root to the hbpbench
// workload or per-layer row (BENCHMARK.json) that measures it.
// Annotating a new root without extending this table — and the
// benchmark coverage it documents — fails TestHotPathRootsExercised,
// so the hotalloc-enforced region cannot drift from what the
// benchmark actually measures.
var exercisedRoots = map[string]string{
	"des.Simulator.Run":         "workload tree-defense; rows des.closure_event_ns / des.typed_event_ns drive the dispatch loop",
	"netsim.Node.Send":          "workload tree-defense and row netsim.forward_hop_ns originate every packet here",
	"netsim.Node.Inject":        "workload internet-scale materializes every macro-flow packet here",
	"netsim.linkDispatch":       "row netsim.forward_hop_ns and workload tree-defense forward packets hop by hop",
	"netsim.crossArrive":        "workload forest-sharded and row netsim.cut_hop_ns deliver ring traffic across part boundaries",
	"netsim.denseTable.NextHop": "row netsim.nexthop_dense_ns; workload forest-sharded routes dense (its root ring makes the cluster chorded)",
	"netsim.treeRoutes.NextHop": "row netsim.nexthop_compressed_ns; workloads tree-defense and internet-scale route compressed (pure trees)",
	"traffic.macroTick":         "row traffic.macro_tick_ns and workload internet-scale drive the flow-level tick loop",
}

// TestHotPathRootsExercised is the benchmark guard: the set of
// //hbplint:hotpath roots found in the simulator sources must equal
// the exercisedRoots table, and reduced versions of the three
// simulator workloads the table cites must actually run those code
// paths.
func TestHotPathRootsExercised(t *testing.T) {
	found := collectHotpathRoots(t, "internal/des", "internal/netsim", "internal/traffic")
	for root := range found {
		if _, ok := exercisedRoots[root]; !ok {
			t.Errorf("//hbplint:hotpath root %s is not in the exercisedRoots table: name the hbpbench workload or row that measures it (and make sure one does)", root)
		}
	}
	for root, bench := range exercisedRoots {
		if !found[root] {
			t.Errorf("exercisedRoots lists %s (%s) but no //hbplint:hotpath directive marks it; remove the entry or restore the annotation", root, bench)
		}
	}
	if t.Failed() {
		return
	}

	// The tree run covers Run (events fired), Node.Send (originated
	// packets), linkDispatch (throughput samples exist only if packets
	// crossed links hop by hop) and treeRoutes.NextHop (a tree is a
	// pure forest, so every hop resolved through the compressed table).
	cfg := experiments.DefaultTreeConfig()
	cfg.Topology.Leaves = 40
	cfg.NumAttackers = 8
	cfg.AttackRate = 0.4e6
	cfg.Defense = experiments.HBP
	cfg.Duration = 10
	cfg.AttackEnd = 8
	cfg.Seed = 1
	r, err := experiments.RunTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.EventsFired == 0 {
		t.Error("tree scenario fired no events; des.Simulator.Run was not exercised")
	}
	if r.Throughput.Len() == 0 {
		t.Error("tree scenario produced no throughput samples; the forwarding path was not exercised")
	}
	// RunTree routes on exactly this tree.
	if kind := topology.NewTree(des.New(), cfg.Topology).Net.RouteKind(); kind != "compressed" {
		t.Errorf("tree scenario routes %q; netsim.treeRoutes.NextHop was not exercised", kind)
	}
	// The sharded forest at width 2 covers crossArrive — the parts form
	// a cross-traffic ring placed round-robin over the shards, so ring
	// traffic must cross a shard boundary to be delivered at all — and
	// denseTable.NextHop: the ring closes a cycle, and RouteAuto keeps
	// chorded graphs on the dense table.
	fcfg := experiments.DefaultForestConfig()
	fcfg.Parts = 8
	fcfg.LeavesPerPart = 16
	fcfg.AttackersPerPart = 3
	fcfg.Shards = 2
	fcfg.Duration = 10
	fcfg.AttackStart = 2
	fcfg.AttackEnd = 8
	fcfg.Seed = 1
	fr, err := experiments.RunShardedForest(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr.EventsFired == 0 || fr.Captures == 0 {
		t.Errorf("sharded forest at width 2 fired %d events with %d captures; the cross-shard delivery path was not exercised", fr.EventsFired, fr.Captures)
	}
	// The forest's skeleton, as RunShardedForest lays it out: one tree
	// per part, roots joined in a ring.
	cl := netsim.NewCluster(des.NewSharded(1, 1), make([]int, fcfg.Parts))
	roots := make([]*netsim.Node, fcfg.Parts)
	for i := range roots {
		p := topology.DefaultParams()
		p.Leaves = fcfg.LeavesPerPart
		roots[i] = topology.GrowTree(cl, i, p).Root
	}
	for i, root := range roots {
		cl.Connect(root, roots[(i+1)%len(roots)], 50e6, 0.01)
	}
	cl.ComputeRoutes()
	if kind := cl.RouteKind(); kind != "dense" {
		t.Errorf("ringed forest routes %q; netsim.denseTable.NextHop was not exercised", kind)
	}
	// The reduced internet scenario (50 zombies among 2000 hosts on 100
	// power-law ASes) covers macroTick (macro flows sent packets at
	// all), Node.Inject (those packets materialized and were delivered —
	// captures require delivery) and, again, treeRoutes.NextHop.
	icfg := experiments.InternetConfigFor(50, 1)
	icfg.Topology.Hosts = 2000
	icfg.Topology.Graph.ASes = 100
	icfg.Topology.Parts = 4
	icfg.Shards = 2
	ir, err := experiments.RunInternet(icfg)
	if err != nil {
		t.Fatal(err)
	}
	if ir.AttackSent == 0 || ir.LegitSent == 0 {
		t.Errorf("internet scenario sent %d attack / %d legit packets; traffic.macroTick was not exercised", ir.AttackSent, ir.LegitSent)
	}
	if ir.Captures == 0 {
		t.Error("internet scenario captured nothing; netsim.Node.Inject expansion was not exercised end to end")
	}
	if ir.RouteKind != "compressed" {
		t.Errorf("internet scenario routed %q; netsim.treeRoutes.NextHop was not exercised", ir.RouteKind)
	}
}

// collectHotpathRoots parses the named directories' non-test sources
// and returns the functions annotated //hbplint:hotpath, keyed as
// pkg.Recv.Name (or pkg.Name for free functions).
func collectHotpathRoots(t *testing.T, dirs ...string) map[string]bool {
	t.Helper()
	roots := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "hbplint:hotpath") {
						continue
					}
					key := f.Name.Name + "."
					if fd.Recv != nil && len(fd.Recv.List) > 0 {
						rt := fd.Recv.List[0].Type
						if star, ok := rt.(*ast.StarExpr); ok {
							rt = star.X
						}
						if id, ok := rt.(*ast.Ident); ok {
							key += id.Name + "."
						}
					}
					roots[key+fd.Name.Name] = true
				}
			}
		}
	}
	return roots
}
