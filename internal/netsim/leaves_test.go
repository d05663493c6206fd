package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/des"
)

// leafCluster is a two-part cluster with reserved endpoints: part 0
// holds a server and its router, part 1 two more routers in a chain,
// and every router owns endpoints — r1 two runs of different link
// classes.
//
//	s — r0 ═(cut)═ r1 — r2
//	    │a          │b,d  │c
type leafCluster struct {
	ss             *des.ShardedSimulator
	cl             *Cluster
	s, r0, r1, r2  *Node
	a, b, c, d     NodeID // first ID of each reservation
	na, nb, nc, nd int
}

func newLeafCluster(shards int, place []int, mode RouteMode) *leafCluster {
	ss := des.NewSharded(3, shards)
	cl := NewCluster(ss, place)
	cl.Routing = mode
	lc := &leafCluster{ss: ss, cl: cl, na: 1, nb: 3, nc: 2, nd: 2}
	lc.s = cl.AddNode(0, "s")
	lc.r0 = cl.AddNode(0, "r0")
	lc.r1 = cl.AddNode(1, "r1")
	lc.r2 = cl.AddNode(1, "r2")
	cl.Connect(lc.s, lc.r0, 100e6, 0.001)
	cl.Connect(lc.r0, lc.r1, 50e6, 0.002)
	cl.Connect(lc.r1, lc.r2, 50e6, 0.002)
	lc.a = cl.AddLeaves(lc.r0, lc.na, 10e6, 0.010)
	lc.b = cl.AddLeaves(lc.r1, lc.nb, 10e6, 0.010)
	lc.c = cl.AddLeaves(lc.r2, lc.nc, 10e6, 0.010)
	lc.d = cl.AddLeaves(lc.r1, lc.nd, 2e6, 0.020)
	cl.ComputeRoutes()
	return lc
}

func TestLeavesReserveContiguousIDs(t *testing.T) {
	lc := newLeafCluster(2, []int{0, 1}, RouteAuto)
	cl := lc.cl
	if lc.a != 4 || lc.b != 5 || lc.c != 8 || lc.d != 10 {
		t.Fatalf("reservations start at %d %d %d %d, want 4 5 8 10", lc.a, lc.b, lc.c, lc.d)
	}
	if len(cl.Nodes()) != 4 {
		t.Fatalf("Nodes() lists %d nodes, want the 4 eager ones", len(cl.Nodes()))
	}
	for i, n := range cl.Nodes() {
		if int(n.ID) != i {
			t.Fatalf("Nodes()[%d] has ID %d", i, n.ID)
		}
	}
	// Routing towards a reserved ID from anywhere but its owner is
	// routing towards the owner, and builds nothing.
	for id := lc.a; id < lc.d+NodeID(lc.nd); id++ {
		if cl.Node(id) != nil || cl.Part(0).Node(id) != nil || cl.Part(1).Node(id) != nil {
			t.Fatalf("reserved ID %d resolves to a node before anything needed it", id)
		}
	}
	if got, want := lc.s.NextHop(lc.c), lc.s.NextHop(lc.r2.ID); got == nil || got != want {
		t.Fatalf("s routes endpoint %d via %v, its owner via %v", lc.c, got, want)
	}
	if got, want := lc.r1.NextHop(lc.c+1), lc.r1.PortTo(lc.r2); got != want {
		t.Fatalf("r1 routes endpoint %d via %v, want its port to r2", lc.c+1, got)
	}
	if got, want := lc.r2.NextHop(lc.a), lc.r2.PortTo(lc.r1); got != want {
		t.Fatalf("r2 routes endpoint %d via %v, want its port to r1", lc.a, got)
	}
	if n := len(cl.Part(0).Nodes()) + len(cl.Part(1).Nodes()); n != 4 {
		t.Fatalf("transit lookups materialised endpoints: parts hold %d nodes", n)
	}
	for _, id := range []NodeID{-1, lc.d + NodeID(lc.nd), 1 << 40} {
		if pt := lc.r1.NextHop(id); pt != nil {
			t.Fatalf("NextHop(%d) = %v outside the ID space", id, pt)
		}
	}
	if cl.RouteKind() != "compressed" {
		t.Fatalf("a chain with reserved endpoints routed %q under auto", cl.RouteKind())
	}
}

func TestLeafMaterialisesOnceOnItsOwner(t *testing.T) {
	lc := newLeafCluster(2, []int{0, 1}, RouteAuto)
	cl := lc.cl
	id := lc.d + 1 // r1's second run, second endpoint
	degree := lc.r1.Degree()
	pt := lc.r1.NextHop(id)
	if pt == nil || pt.Node() != lc.r1 {
		t.Fatalf("owner's port towards %d is %v", id, pt)
	}
	if again := lc.r1.NextHop(id); again != pt {
		t.Fatalf("second lookup returned %p, first %p", again, pt)
	}
	h := pt.Peer().Node()
	if h.ID != id || h.Degree() != 1 || h.Ports()[0] != pt.Peer() || h.Ports()[0].Peer() != pt {
		t.Fatalf("endpoint %v is not a degree-one node on the owner's port", h)
	}
	if h.Network() != cl.Part(1) || cl.Node(id) != h || cl.Part(1).Node(id) != h || cl.Part(0).Node(id) != nil {
		t.Fatal("endpoint not resolvable on exactly its owner's part")
	}
	if l := pt.Link(); l.Bandwidth != 2e6 || l.Delay != 0.020 || l.A() != pt || l.B() != pt.Peer() {
		t.Fatalf("access link %v is not the reservation's class", l)
	}
	if lc.r1.Degree() != degree+1 || lc.r1.Ports()[pt.Index()] != pt || lc.r1.PortTo(h) != pt {
		t.Fatalf("owner does not list the new port at its index %d", pt.Index())
	}
	if nodes := cl.Part(1).Nodes(); len(nodes) != 3 || nodes[2] != h {
		t.Fatalf("part 1 lists %d nodes, want its 2 routers then the endpoint", len(nodes))
	}
	if len(cl.Part(0).Nodes()) != 2 || len(cl.Nodes()) != 4 {
		t.Fatal("materialising on part 1 changed part 0 or the eager list")
	}
	// The neighbours stay numbers.
	if cl.Node(id-1) != nil || cl.Node(lc.b) != nil {
		t.Fatal("materialising one endpoint built another")
	}
	// State set on the port stays: it is the port every later packet gets.
	pt.BlockedIngress = true
	if !lc.r1.NextHop(id).BlockedIngress {
		t.Fatal("BlockedIngress lost between lookups")
	}
	// An endpoint has one way out, whatever the destination.
	for _, dst := range []NodeID{lc.s.ID, lc.r1.ID, lc.a, id - 1} {
		if got := h.NextHop(dst); got != pt.Peer() {
			t.Fatalf("endpoint routes %d via %v, want its only port", dst, got)
		}
	}
	if h.NextHop(id) != nil || h.NextHop(-1) != nil || h.NextHop(lc.d+NodeID(lc.nd)) != nil {
		t.Fatal("endpoint routes itself or an ID outside the space")
	}
}

func TestLeafPathHops(t *testing.T) {
	lc := newLeafCluster(2, []int{0, 1}, RouteAuto)
	cl := lc.cl
	far := lc.c + 1 // behind r2: s — r0 — r1 — r2 — endpoint
	if hops := cl.PathHops(lc.s.ID, far); hops != 4 {
		t.Fatalf("server -> endpoint %d hops, want 4", hops)
	}
	// The walk asked r2 for its port towards the endpoint, so the way
	// back starts from a real node.
	if cl.Node(far) == nil {
		t.Fatal("walking to an endpoint did not materialise it")
	}
	if hops := cl.PathHops(far, lc.s.ID); hops != 4 {
		t.Fatalf("endpoint -> server %d hops, want 4", hops)
	}
	if hops := cl.PathHops(far, lc.b); hops != 3 {
		t.Fatalf("endpoint -> endpoint %d hops, want 3", hops)
	}
	// Until its owner is asked, a reserved ID is nothing to start from.
	if hops := cl.PathHops(lc.a, lc.s.ID); hops != -1 {
		t.Fatalf("path from an unmaterialised endpoint = %d, want -1", hops)
	}
	// The per-part walk (core's victim distance) crosses the cut too.
	if hops := cl.Part(1).PathHops(lc.r2.ID, lc.a); hops != 3 {
		t.Fatalf("part-level r2 -> endpoint behind r0 = %d hops, want 3", hops)
	}
}

// TestLeafTrafficAndTeardown drives packets to and from endpoints under
// the sharded engine — so the shard goroutine of part 1 is what builds
// them — and checks that drop accounting, Drain and the leak gauge see
// the materialised links.
func TestLeafTrafficAndTeardown(t *testing.T) {
	for _, shards := range []int{1, 2} {
		lc := newLeafCluster(shards, []int{0, shards - 1}, RouteAuto)
		cl := lc.cl
		var got int
		lc.s.Handler = func(p *Packet, in *Port) { got++ }
		send := func(from *Node, dst NodeID, n int) {
			for i := 0; i < n; i++ {
				p := from.NewPacket()
				p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = from.ID, from.ID, dst, 500, Data
				from.Send(p)
			}
		}
		// Down: 80 packets to one endpoint behind r1's slow class overflow
		// r1's 50-packet queue on the access link (and only that one: the
		// two upstream queues are widened to carry the burst). Up: r1
		// injects packets as if they came from an endpoint, the
		// macro-flow entry.
		up := lc.b + 2
		down := lc.d
		lc.s.PortTo(lc.r0).SetQueueLimit(100)
		lc.r0.PortTo(lc.r1).SetQueueLimit(100)
		lc.s.Network().Sim.At(0.001, func() { send(lc.s, down, 80) })
		lc.r1.Network().Sim.At(0.001, func() {
			for i := 0; i < 5; i++ {
				p := lc.r1.NewPacket()
				p.Src, p.TrueSrc, p.Dst, p.Size, p.Type = up, up, lc.s.ID, 500, Data
				lc.r1.Inject(p, lc.r1.NextHop(up))
			}
		})
		if err := lc.ss.RunUntil(0.05); err != nil {
			t.Fatal(err)
		}
		hDown, hUp := cl.Node(down), cl.Node(up)
		if hDown == nil || hUp == nil || len(cl.Part(1).Nodes()) != 4 {
			t.Fatalf("shards=%d: endpoints not materialised by the run", shards)
		}
		if got != 5 {
			t.Fatalf("shards=%d: server got %d of 5 injected packets", shards, got)
		}
		access := lc.r1.NextHop(down)
		if access.QueueDrops() == 0 || cl.TotalQueueDrops() != access.QueueDrops() {
			t.Fatalf("shards=%d: access port dropped %d, cluster total %d", shards, access.QueueDrops(), cl.TotalQueueDrops())
		}
		// Mid-transfer: the slow access link still holds a queue.
		if access.QueueLen() == 0 || cl.PacketsOutstanding() == 0 {
			t.Fatalf("shards=%d: nothing in flight at the cut-off; the drain below proves nothing", shards)
		}
		if hDown.Stats.Delivered == 0 {
			t.Fatalf("shards=%d: endpoint received nothing", shards)
		}
		// The endpoint answers through its one port.
		lc.ss.Shard(cl.ShardOf(1)).At(0.05, func() { send(hDown, lc.s.ID, 1) })
		if err := lc.ss.RunUntil(0.08); err != nil {
			t.Fatal(err)
		}
		if got != 6 {
			t.Fatalf("shards=%d: endpoint's reply not delivered (%d at server)", shards, got)
		}
		cl.Drain()
		if out := cl.PacketsOutstanding(); out != 0 {
			t.Fatalf("shards=%d: %d packets leaked past Drain", shards, out)
		}
		if access.QueueLen() != 0 {
			t.Fatalf("shards=%d: Drain left %d packets on a materialised link", shards, access.QueueLen())
		}
	}
}

// TestLeafOwnerCrashFlushesAccessQueues: a materialised port is one of
// its owner's ports, so a crash flushes it with the rest.
func TestLeafOwnerCrashFlushesAccessQueues(t *testing.T) {
	lc := newLeafCluster(1, []int{0, 0}, RouteAuto)
	pt := lc.r1.NextHop(lc.d)
	for i := 0; i < 3; i++ {
		p := lc.r1.NewPacket()
		p.Dst, p.Size = lc.d, 500
		lc.r1.Send(p)
	}
	if pt.QueueLen() == 0 {
		t.Fatal("nothing queued on the access port")
	}
	lc.r1.SetDown(true)
	if pt.QueueLen() != 0 {
		t.Fatalf("crash left %d packets on the access port", pt.QueueLen())
	}
}

func TestLeavesUnderForcedRouteModes(t *testing.T) {
	ref := newLeafCluster(1, []int{0, 0}, RouteAuto)
	for _, mode := range []RouteMode{RouteDense, RouteCompressed} {
		lc := newLeafCluster(1, []int{0, 0}, mode)
		if want := map[RouteMode]string{RouteDense: "dense", RouteCompressed: "compressed"}[mode]; lc.cl.RouteKind() != want {
			t.Fatalf("mode %d built a %q table", mode, lc.cl.RouteKind())
		}
		total := lc.d + NodeID(lc.nd)
		for _, src := range lc.cl.Nodes() {
			for dst := NodeID(0); dst < total; dst++ {
				got, want := src.NextHop(dst), ref.cl.Node(src.ID).NextHop(dst)
				if (got == nil) != (want == nil) || got != nil && (got.Index() != want.Index() || got.Far().Node().ID != want.Far().Node().ID) {
					t.Fatalf("mode %d: %v -> %d via %v, reference %v", mode, src, dst, got, want)
				}
			}
		}
		// Every endpoint is real now (each owner was asked for each of
		// its own); a recompute must route around them, not into them.
		lc.cl.ComputeRoutes()
		if hops := lc.cl.PathHops(lc.c, lc.a); hops != 4 {
			t.Fatalf("mode %d: endpoint -> endpoint across the cluster = %d hops after a recompute, want 4", mode, hops)
		}
	}
	// The table has rows for eager nodes only; the reservations cost a
	// directory entry and a port slot each.
	if got, want := ref.cl.RouteBytes(), ref.cl.rt.RouteBytes()+int64(ref.na+ref.nb+ref.nc+ref.nd)*12; got != want {
		t.Fatalf("RouteBytes = %d, want %d", got, want)
	}
}

func TestLeafReservationRules(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	lc := newLeafCluster(1, []int{0, 0}, RouteAuto)
	mustPanic("AddNode after AddLeaves", func() { lc.cl.AddNode(0, "late") })
	mustPanic("empty reservation", func() { lc.cl.AddLeaves(lc.r0, 0, 1e6, 0) })
	mustPanic("zero bandwidth", func() { lc.cl.AddLeaves(lc.r0, 1, 0, 0) })
	mustPanic("negative delay", func() { lc.cl.AddLeaves(lc.r0, 1, 1e6, -1) })
	h := lc.r0.NextHop(lc.a).Peer().Node()
	mustPanic("endpoint as owner", func() { lc.cl.AddLeaves(h, 1, 1e6, 0) })
	other := NewCluster(des.NewSharded(1, 1), []int{0})
	mustPanic("foreign owner", func() { lc.cl.AddLeaves(other.AddNode(0, "x"), 1, 1e6, 0) })
	// A late reservation is fine: IDs keep following.
	if first := lc.cl.AddLeaves(lc.r2, 2, 1e6, 0); first != lc.d+NodeID(lc.nd) || lc.s.NextHop(first+1) != lc.s.NextHop(lc.r2.ID) {
		t.Fatalf("late reservation starts at %d or is not routed to its owner", first)
	}
	// A cluster that reserves nothing keeps a nil directory: NextHop's
	// only extra cost there is that comparison.
	if other.leaves != nil || other.Part(0).leaves != nil {
		t.Fatal("cluster without reservations carries a leaf directory")
	}
}

// hostCluster is a seeded random cluster whose end hosts are either
// reserved endpoints (AddLeaves) or eager nodes on ordinary links, with
// the same IDs and link classes either way. Every router hashes what it
// forwards and what it receives, so two builds that behave alike agree
// on the hashes.
type hostCluster struct {
	ss      *des.ShardedSimulator
	cl      *Cluster
	routers []*Node
	hosts   []NodeID // every endpoint ID, ascending
	owner   []*Node  // owner[i] is the router hosts[i] hangs off
	hash    []uint64 // per router, written only by its own shard
}

// newHostCluster draws the model from seed alone — a random tree of 12
// routers over 4 parts, one or two endpoint runs per router, each of a
// random access-link class — and builds it at the given width.
func newHostCluster(seed int64, shards int, eager bool) *hostCluster {
	const parts, routers = 4, 12
	classes := [][2]float64{{1e6, 0.004}, {2e6, 0.002}, {10e6, 0.001}}
	rng := des.NewRNG(seed)
	place := make([]int, parts)
	for i := range place {
		place[i] = i % shards
	}
	hc := &hostCluster{ss: des.NewSharded(seed, shards)}
	hc.cl = NewCluster(hc.ss, place)
	cl := hc.cl
	for i := 0; i < routers; i++ {
		r := cl.AddNode(rng.Intn(parts), fmt.Sprintf("r%d", i))
		if i > 0 {
			cl.Connect(hc.routers[rng.Intn(i)], r, float64(5+rng.Intn(20))*1e6, 0.001*float64(1+rng.Intn(3)))
		}
		hc.routers = append(hc.routers, r)
	}
	type run struct {
		owner *Node
		n     int
		class [2]float64
	}
	var runs []run
	for _, r := range hc.routers {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			runs = append(runs, run{r, 1 + rng.Intn(3), classes[rng.Intn(len(classes))]})
		}
	}
	for _, rn := range runs {
		if !eager {
			cl.AddLeaves(rn.owner, rn.n, rn.class[0], rn.class[1])
		}
		for k := 0; k < rn.n; k++ {
			if eager {
				h := cl.AddNode(cl.partOf(rn.owner), "")
				cl.Connect(rn.owner, h, rn.class[0], rn.class[1])
			}
			hc.hosts = append(hc.hosts, NodeID(routers+len(hc.owner)))
			hc.owner = append(hc.owner, rn.owner)
		}
	}
	cl.ComputeRoutes()
	hc.hash = make([]uint64, routers)
	for i, r := range hc.routers {
		i := i
		mix := func(p *Packet, id NodeID) {
			hc.hash[i] = hc.hash[i]*1099511628211 ^ math.Float64bits(r.Network().Sim.Now()) ^
				uint64(p.Src)<<40 ^ uint64(id)<<20 ^ uint64(p.Seq)
		}
		r.AddHook(ForwardFunc(func(n *Node, p *Packet, in, out *Port) bool {
			mix(p, out.farNode().ID)
			return true
		}))
		r.Handler = func(p *Packet, in *Port) { mix(p, r.ID) }
	}
	return hc
}

// traffic schedules a seeded burst pattern between from and until: a
// random half of the hosts send, to routers and to a random half of
// the hosts, so some endpoints see no packet at all. A host sends
// through the port its owner has towards it — which is what builds a
// reserved one.
func (hc *hostCluster) traffic(seed int64, from, until float64) {
	rng := des.NewRNG(seed)
	var dsts []NodeID
	for _, r := range hc.routers {
		dsts = append(dsts, r.ID)
	}
	for _, h := range hc.hosts {
		if rng.Intn(2) == 0 {
			dsts = append(dsts, h)
		}
	}
	for i, h := range hc.hosts {
		if rng.Intn(2) == 0 {
			continue
		}
		i, h, srng := i, h, rng.Split(int64(h))
		owner := hc.owner[i]
		sim := owner.Network().Sim
		var seq int64
		var send func()
		send = func() {
			if sim.Now() >= until {
				return
			}
			node := owner.NextHop(h).farNode()
			for k := 1 + srng.Intn(6); k > 0; k-- {
				dst := dsts[srng.Intn(len(dsts))]
				if dst == h {
					continue
				}
				p := node.NewPacket()
				seq++
				p.Src, p.TrueSrc, p.Dst, p.Size, p.Type, p.Seq = h, h, dst, 500, Data, seq
				node.Send(p)
			}
			sim.After(0.002*float64(1+srng.Intn(4)), send)
		}
		sim.At(from+0.001*float64(1+srng.Intn(5)), send)
	}
}

// state renders what the two builds must agree on: the event count, the
// cluster's queue drops, every router's hash and every ID's counters
// (an endpoint nothing built counts as zeros).
func (hc *hostCluster) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired=%d drops=%d\n", hc.ss.Fired(), hc.cl.TotalQueueDrops())
	for i, h := range hc.hash {
		fmt.Fprintf(&b, "r%d %016x\n", i, h)
	}
	for id := NodeID(0); id < NodeID(len(hc.routers)+len(hc.hosts)); id++ {
		var st NodeStats
		if n := hc.cl.Node(id); n != nil {
			st = n.Stats
		}
		fmt.Fprintf(&b, "%d sent=%d fwd=%d dlv=%d drop=%d\n", id, st.Sent, st.Forwarded, st.Delivered, st.TotalDrops())
	}
	return b.String()
}

// hops renders PathHops for every (router, endpoint) pair both ways and
// every endpoint pair. Walking to an endpoint builds it, so afterwards
// every reserved endpoint is real.
func (hc *hostCluster) hops() string {
	var b strings.Builder
	for _, r := range hc.routers {
		for _, h := range hc.hosts {
			fmt.Fprintf(&b, "%d>%d=%d %d>%d=%d\n", r.ID, h, hc.cl.PathHops(r.ID, h), h, r.ID, hc.cl.PathHops(h, r.ID))
		}
	}
	for _, a := range hc.hosts {
		for _, z := range hc.hosts {
			fmt.Fprintf(&b, "%d>%d=%d\n", a, z, hc.cl.PathHops(a, z))
		}
	}
	return b.String()
}

// TestReservedEndpointsMatchEagerHosts is the differential check of
// endpoints on demand: a random cluster whose hosts are reserved IDs
// must behave exactly as the same cluster with every host built
// eagerly — same routes to and from every endpoint, same packets
// delivered and dropped, same forwarding events at the same times —
// at every engine width, mid-run materialisation included, and again
// after ComputeRoutes re-runs over the materialised endpoints.
func TestReservedEndpointsMatchEagerHosts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var refHops, refRun, refRerun string
		for _, shards := range []int{1, 2, 4} {
			for _, eager := range []bool{true, false} {
				name := fmt.Sprintf("seed %d, %d shards, eager=%v", seed, shards, eager)
				hc := newHostCluster(seed, shards, eager)
				hc.traffic(seed, 0, 0.3)
				if err := hc.ss.RunUntil(0.4); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				run := hc.state()
				hops := hc.hops()
				hc.cl.ComputeRoutes()
				if again := hc.hops(); again != hops {
					t.Fatalf("%s: ComputeRoutes over the built endpoints moved a route", name)
				}
				hc.traffic(seed+100, 0.4, 0.7)
				if err := hc.ss.RunUntil(0.8); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rerun := hc.state()
				hc.cl.Drain()
				if out := hc.cl.PacketsOutstanding(); out != 0 {
					t.Fatalf("%s: %d packets leaked past Drain", name, out)
				}
				if refRun == "" {
					refHops, refRun, refRerun = hops, run, rerun
					if !strings.Contains(run, "dlv=") || hc.cl.TotalQueueDrops() == 0 {
						t.Fatalf("%s: workload delivers or drops nothing:\n%s", name, run)
					}
					continue
				}
				if hops != refHops {
					t.Fatalf("%s: PathHops differ from the eager 1-shard build", name)
				}
				if run != refRun {
					t.Fatalf("%s: run differs from the eager 1-shard build\n--- eager, 1 shard\n%s--- %s\n%s", name, refRun, name, run)
				}
				if rerun != refRerun {
					t.Fatalf("%s: run after the route recompute differs from the eager 1-shard build", name)
				}
			}
		}
	}
}

// TestEndpointSizeClass pins the cost of one touched host: a
// materialised endpoint is one heap object, and the internet-scale
// memory model in DESIGN.md counts it in the 768-byte size class. A
// field added to Node, Link or Port that pushes it past 768 bytes moves
// every touched host into the 896-byte class.
func TestEndpointSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(endpoint{}); got > 768 {
		t.Fatalf("endpoint is %d bytes, want <= 768 (the 768-byte size class)", got)
	}
}
