package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/jsonl"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The micro rows time one layer's public entry points directly, with
// no scenario around them. Each row is the best of microTries tries —
// these are tiny loops, and the quickest try is the one the host
// disturbed least — over the quicker of the two reference kernel runs
// around the row, for the same reason. Each row is taken once, in the
// traced run of the workload whose end-to-end metrics it should move.

const microTries = 3

// microTimer collects rows into the per-layer map. The reference
// kernel runs once between rows: the run after one row is the run
// before the next.
type microTimer struct {
	layer map[string]float64
	refs  []time.Duration
}

// ref closes a row: it runs the reference kernel and returns the
// quicker of this run and the one that closed the previous row.
func (m *microTimer) ref() time.Duration {
	prev := m.refs[len(m.refs)-1]
	cur := refk(0)
	m.refs = append(m.refs, cur)
	return min(prev, cur)
}

// perOp runs body (which performs n operations) microTries times and
// records the best normalised time per operation in the given unit.
func (m *microTimer) perOp(name string, unit time.Duration, n int, body func()) {
	m.perOpPrepared(name, unit, n, nil, body)
}

// perOpPrepared is perOp with an untimed prep step before each try.
func (m *microTimer) perOpPrepared(name string, unit time.Duration, n int, prep, body func()) {
	var best time.Duration
	for try := 0; try < microTries; try++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		body()
		if d := time.Since(t0); try == 0 || d < best {
			best = d
		}
	}
	m.layer[name] = normalise(best, m.ref()) * float64(time.Millisecond) / float64(unit) / float64(n)
}

// microRows measures the micro rows that belong to the given workload.
func microRows(workload string, layer map[string]float64) ([]time.Duration, error) {
	m := &microTimer{layer: layer, refs: []time.Duration{refk(0)}}
	switch workload {
	case "tree-defense":
		m.desEvents()
		m.forwarding()
		m.nextHop()
	case "forest-sharded":
		m.desSharded()
		m.cutHop()
	case "internet-scale":
		m.routeBuild()
		m.topology()
		m.traffic()
	case "fleet-saturated":
		spec := fleetCase()
		if err := m.scenario(spec); err != nil {
			return nil, fmt.Errorf("scenario rows: %w", err)
		}
		if err := m.journalAndFleet(spec); err != nil {
			return nil, fmt.Errorf("fleet rows: %w", err)
		}
	}
	runtime.GC()
	return m.refs, nil
}

// ---- internal/des ----

type ticker struct {
	sim   *des.Simulator
	n     int
	limit int
	x     uint64
	gap   func(*ticker) float64
	send  func()
}

func tick(a, _ any, _ uint8) {
	t := a.(*ticker)
	t.n++
	if t.send != nil {
		t.send()
	}
	if t.n < t.limit {
		t.sim.ScheduleTyped(t.sim.Now()+t.gap(t), tick, t, nil, 0)
	}
}

func fixedGap(*ticker) float64 { return 0.001 }

func lcgGap(t *ticker) float64 {
	t.x = t.x*6364136223846793005 + 1442695040888963407
	return float64(t.x>>40) / (1 << 24)
}

func (m *microTimer) desEvents() {
	const n = 400_000
	m.perOp("des.closure_event_ns", time.Nanosecond, n, func() {
		sim := des.New()
		fired := 0
		var step func()
		step = func() {
			fired++
			if fired < n {
				sim.After(0.001, step)
			}
		}
		sim.At(0, step)
		must(sim.Run())
	})
	m.perOp("des.typed_event_ns", time.Nanosecond, n, func() {
		sim := des.New()
		t := &ticker{sim: sim, limit: n, gap: fixedGap}
		sim.ScheduleTyped(0, tick, t, nil, 0)
		must(sim.Run())
	})
	// Cancel: 2^16 pending events, cancelled in scheduling order (which
	// is scattered heap order, the keys being pseudo-random).
	const pending = 1 << 16
	evs := make([]des.Event, pending)
	var sim *des.Simulator
	fill := func() {
		sim = des.New()
		t := &ticker{x: 7}
		for i := range evs {
			evs[i] = sim.ScheduleTyped(1+lcgGap(t), tick, t, nil, 0)
		}
	}
	m.perOpPrepared("des.cancel_ns", time.Nanosecond, pending, fill, func() {
		for _, e := range evs {
			e.Cancel()
		}
		if sim.Pending() != 0 {
			panic("hbpbench: cancel row left events pending")
		}
	})
	// Deep heap: 10^5 self-rescheduling tickers with pseudo-random
	// gaps, so every dispatch sifts through ~17 levels.
	m.perOp("des.deep_heap_event_ns", time.Nanosecond, n, func() {
		sim := des.New()
		const tickers = 100_000
		for i := 0; i < tickers; i++ {
			t := &ticker{sim: sim, limit: n / tickers, x: uint64(i)*2654435761 + 1, gap: lcgGap}
			sim.ScheduleTyped(lcgGap(t), tick, t, nil, 0)
		}
		must(sim.Run())
		if sim.Fired() != n {
			panic("hbpbench: deep-heap row fired a different event count")
		}
	})
}

// desSharded times the sharded engine: two shards, one tick each per
// window. The channel pair exists only to give the engine a lookahead.
func (m *microTimer) desSharded() {
	const windows = 50_000
	sharded := func(sendsPerTick int) func() {
		return func() {
			ss := des.NewSharded(1, 2)
			const look = 0.001
			chans := [2]*des.Channel{ss.NewChannel(0, 1, look), ss.NewChannel(1, 0, look)}
			for s := 0; s < 2; s++ {
				ch := chans[s]
				sink := &ticker{} // fires on the other shard only
				t := &ticker{sim: ss.Shard(s), limit: windows, gap: fixedGap}
				if sendsPerTick > 0 {
					t.send = func() {
						for k := 0; k < sendsPerTick; k++ {
							ch.Send(look, tick, sink, nil, 0)
						}
					}
				}
				ss.Shard(s).ScheduleTyped(0, tick, t, nil, 0)
			}
			must(ss.RunUntil(windows * look))
		}
	}
	m.perOp("des.window_overhead_us", time.Microsecond, windows, sharded(0))
	const sends = 16
	m.perOp("des.channel_send_ns", time.Nanosecond, 2*windows*sends, sharded(sends))
	// What a message costs is the run with sends minus the same
	// windows without.
	base := m.layer["des.window_overhead_us"] * 1000 / (2 * sends)
	m.layer["des.channel_send_ns"] = max(m.layer["des.channel_send_ns"]-base, 0)
}

// ---- internal/netsim ----

const microPackets = 30_000

// forwarding sends pooled packets down a 10-router string.
func (m *microTimer) forwarding() {
	const packets = microPackets
	{
		sim := des.New()
		tr := topology.NewString(sim, 10, 1, topology.LinkClass{Bandwidth: 1e9, Delay: 0.0001})
		host, dst := tr.Leaves[0], tr.Servers[0].ID
		got := 0
		tr.Servers[0].Handler = func(*netsim.Packet, *netsim.Port) { got++ }
		hops := tr.Net.PathHops(host.ID, dst)
		send := func() {
			p := host.NewPacket()
			*p = netsim.Packet{Src: host.ID, TrueSrc: host.ID, Dst: dst, Size: 500, Type: netsim.Data}
			host.Send(p)
			must(sim.Run())
		}
		for i := 0; i < 64; i++ {
			send()
		}
		m.perOp("netsim.forward_hop_ns", time.Nanosecond, packets*hops, func() {
			for i := 0; i < packets; i++ {
				send()
			}
		})
		if got == 0 {
			panic("hbpbench: forwarding row delivered nothing")
		}
	}
}

// cutHop times a hop across a Cluster cut: two hosts in two parts
// joined by one cut link, so a packet's whole path is the cut (send,
// channel, barrier injection, packet copy, delivery).
func (m *microTimer) cutHop() {
	const packets = microPackets
	m.perOp("netsim.cut_hop_ns", time.Nanosecond, packets, func() {
		ss := des.NewSharded(1, 1)
		cl := netsim.NewCluster(ss, []int{0, 0})
		a, b := cl.AddNode(0, "a"), cl.AddNode(1, "b")
		cl.Connect(a, b, 1e9, 0.0001)
		cl.ComputeRoutes()
		got := 0
		b.Handler = func(*netsim.Packet, *netsim.Port) { got++ }
		t := &ticker{sim: ss.Shard(0), limit: packets, gap: func(*ticker) float64 { return 0.00001 }}
		t.send = func() {
			p := a.NewPacket()
			*p = netsim.Packet{Src: a.ID, TrueSrc: a.ID, Dst: b.ID, Size: 500, Type: netsim.Data}
			a.Send(p)
		}
		ss.Shard(0).ScheduleTyped(0, tick, t, nil, 0)
		must(ss.Run())
		if got != packets {
			panic(fmt.Sprintf("hbpbench: cut row delivered %d of %d", got, packets))
		}
	})
}

// routeModes are the two route-table representations, compared on the
// same 1000-leaf tree.
var routeModes = []struct {
	name string
	mode netsim.RouteMode
}{{"dense", netsim.RouteDense}, {"compressed", netsim.RouteCompressed}}

func thousandLeafTree() *topology.Tree {
	p := topology.DefaultParams()
	p.Leaves = 1000
	return topology.NewTree(des.New(), p)
}

// routeBuild times the construction of each route table.
func (m *microTimer) routeBuild() {
	tr := thousandLeafTree()
	for _, mode := range routeModes {
		tr.Net.Routing = mode.mode
		m.perOp("netsim.route_build_"+mode.name+"_ms", time.Millisecond, 1, tr.Net.ComputeRoutes)
		if kind := tr.Net.RouteKind(); kind != mode.name {
			panic("hbpbench: route table is " + kind + ", want " + mode.name)
		}
	}
}

// nextHop times next-hop lookups from every router toward
// pseudo-random leaves, on each route table.
func (m *microTimer) nextHop() {
	tr := thousandLeafTree()
	const lookups = 2_000_000
	for _, mode := range routeModes {
		tr.Net.Routing = mode.mode
		tr.Net.ComputeRoutes()
		hits := 0
		m.perOp("netsim.nexthop_"+mode.name+"_ns", time.Nanosecond, lookups, func() {
			x := uint64(1)
			for i := 0; i < lookups; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := tr.Routers[i%len(tr.Routers)]
				if r.NextHop(tr.Leaves[int(x>>33)%len(tr.Leaves)].ID) != nil {
					hits++
				}
			}
		})
		if hits == 0 {
			panic("hbpbench: next-hop row resolved nothing")
		}
	}
}

// ---- internal/topology ----

func (m *microTimer) topology() {
	p := topology.DefaultParams()
	p.Leaves = 1000
	m.perOp("topology.tree_build_ms", time.Millisecond, 1, func() { topology.NewTree(des.New(), p) })

	cfg := internetConfig(defaultSeed, false)
	var g *topology.ASGraph
	m.perOp("topology.asgraph_gen_ms", time.Millisecond, 1, func() { g = topology.GenerateASGraph(cfg.Topology.Graph) })
	hosts := g.SpreadHosts(cfg.Topology.Hosts)
	m.perOp("topology.partition_ms", time.Millisecond, 1, func() { g.PartitionSubtrees(cfg.Topology.Parts, hosts) })
	var it *topology.Internet
	m.perOpPrepared("topology.internet_build_ms", time.Millisecond, 1, func() {
		it = nil
		runtime.GC() // or three 300 MB builds pile up
	}, func() {
		it = topology.BuildInternet(des.NewSharded(1, 1), cfg.Topology)
	})
	m.layer["netsim.route_bytes_per_node"] = float64(it.Cluster.RouteBytes()) / float64(len(it.Cluster.Nodes()))
}

// ---- internal/traffic ----

// skipOracle never expands: every emission stays aggregated, so a tick
// costs only the flow's own bookkeeping and its event.
type skipOracle struct{}

func (skipOracle) Expand(_, _ netsim.NodeID) (*netsim.Node, *netsim.Port) { return nil, nil }

func (m *microTimer) traffic() {
	const ticks = 400_000
	members := make([]netsim.NodeID, 1000)
	for i := range members {
		members[i] = netsim.NodeID(i)
	}
	m.perOp("traffic.macro_tick_ns", time.Nanosecond, ticks, func() {
		sim := des.New()
		f := &traffic.MacroFlow{
			Sim: sim, Members: members, Rate: 4e6, Size: 500,
			Dest: func() netsim.NodeID { return 0 }, Oracle: skipOracle{},
		}
		f.Start()
		must(sim.RunUntil(float64(ticks) * f.Interval()))
		if f.Skipped < ticks-1 {
			panic(fmt.Sprintf("hbpbench: macro row ticked %d of %d", f.Skipped, ticks))
		}
	})
}

// ---- internal/scenario ----

func (m *microTimer) scenario(spec scenario.CaseSpec) error {
	spec.Name = "micro"
	const calls = 300
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.perOp("scenario.validate_us", time.Microsecond, calls*10, func() {
		for i := 0; i < calls*10; i++ {
			note(spec.Validate())
		}
	})
	m.perOp("scenario.solo_exec_us", time.Microsecond, calls, func() {
		for i := 0; i < calls; i++ {
			_, err := scenario.RunCaseSolo(&spec, 1)
			note(err)
		}
	})

	// The local daemon's path: in-process Runner, then the same Runner
	// behind scenario.NewServer on loopback.
	runner := scenario.NewRunner(scenario.Config{Workers: 1}, nil)
	runner.Start()
	suite, err := runner.CreateSuite("micro")
	if err != nil {
		return err
	}
	m.perOp("scenario.runner_roundtrip_us", time.Microsecond, calls, func() {
		for i := 0; i < calls; i++ {
			run, err := runner.Submit(suite.ID, spec)
			if err != nil {
				note(err)
				continue
			}
			for {
				snap, _ := runner.GetRun(run.ID)
				if snap.State.Terminal() {
					if snap.State != scenario.StatePassed {
						note(fmt.Errorf("runner case ended %s", snap.State))
					}
					break
				}
				runtime.Gosched()
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: scenario.NewServer(runner)}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed at Shutdown
	client := scenario.NewClient("http://" + ln.Addr().String())
	client.HTTP = &http.Client{Transport: oneConn()}
	ctx := context.Background()
	m.perOp("scenario.http_roundtrip_us", time.Microsecond, calls, func() {
		for i := 0; i < calls; i++ {
			run, err := client.SubmitCase(ctx, suite.ID, spec)
			if err != nil {
				note(err)
				continue
			}
			for !run.State.Terminal() {
				if run, err = client.GetRun(ctx, run.ID); err != nil {
					note(err)
					break
				}
			}
		}
	})
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	note(srv.Shutdown(sctx))
	note(runner.Drain(sctx))
	return firstErr
}

// ---- internal/jsonl + internal/fleet ----

func (m *microTimer) journalAndFleet(spec scenario.CaseSpec) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	dir, _, err := journalDir()
	if err != nil {
		return err
	}
	defer removeScratch(dir) //nolint:errcheck // best effort; the rows are already taken
	disk, err := diskDir()
	if err != nil {
		return err
	}
	defer removeScratch(disk) //nolint:errcheck // as above

	entry := fleet.Entry{Type: fleet.EntryDispatched, Suite: "s-1", Run: "r-1234", Worker: "w-1", Dispatch: 1, SeedAttempt: 1}
	record := func(name, path string, n int) {
		log, _, err := jsonl.Open[fleet.Entry](path)
		if err != nil {
			note(err)
			return
		}
		m.perOp(name, time.Microsecond, n, func() {
			for i := 0; i < n; i++ {
				note(log.Record(entry))
			}
		})
		note(log.Close())
	}
	record("jsonl.record_us", filepath.Join(dir, "micro.jsonl"), 3000)
	// The same call where fsync reaches a disk: informational, it
	// measures the disk.
	record("jsonl.record_fsync_disk_us", filepath.Join(disk, "micro.jsonl"), 60)
	raw, err := os.ReadFile(filepath.Join(dir, "micro.jsonl"))
	if err != nil {
		return err
	}
	m.perOp("jsonl.parse_mb_per_s", time.Second, 1, func() {
		if entries, _ := jsonl.Parse[fleet.Entry](raw); len(entries) == 0 {
			note(fmt.Errorf("journal parsed to nothing"))
		}
	})
	// perOp gave seconds per parse; the row is megabytes per second.
	m.layer["jsonl.parse_mb_per_s"] = float64(len(raw)) / (1 << 20) / m.layer["jsonl.parse_mb_per_s"]

	// Fleet protocol calls one at a time, no worker: the harness plays
	// the worker against a journaled coordinator, first over HTTP
	// through RemoteCoord, then in process.
	solo, err := scenario.RunCaseSolo(&spec, 1)
	if err != nil {
		return err
	}
	outcome := fleet.Outcome{State: scenario.StatePassed, Result: solo}
	const batch = fleetQueueCap
	protocol := func(prefix string, viaHTTP bool) {
		journal, _, err := fleet.OpenJournal(filepath.Join(dir, prefix+".jsonl"))
		if err != nil {
			note(err)
			return
		}
		defer journal.Close()
		coord := fleet.NewCoordinator(fleet.Config{QueueCap: batch, Journal: journal}, nil)
		var wc fleet.Coord = coord
		var submit func(suite string, spec scenario.CaseSpec) error
		if viaHTTP {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				note(err)
				return
			}
			srv := &http.Server{Handler: fleet.NewServer(coord)}
			go srv.Serve(ln) //nolint:errcheck // ErrServerClosed at Shutdown
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				note(srv.Shutdown(ctx))
			}()
			base := "http://" + ln.Addr().String()
			remote := fleet.NewRemoteCoord(base)
			remote.HTTP = &http.Client{Transport: oneConn()}
			wc = remote
			client := scenario.NewClient(base)
			client.HTTP = remote.HTTP
			submit = func(suite string, spec scenario.CaseSpec) error {
				_, err := client.SubmitCase(context.Background(), suite, spec)
				return err
			}
		} else {
			submit = func(suite string, spec scenario.CaseSpec) error {
				_, err := coord.Submit(suite, spec)
				return err
			}
		}
		suite, err := coord.CreateSuite("micro")
		if err != nil {
			note(err)
			return
		}
		worker, err := wc.Register(fleet.WorkerInfo{Name: "micro", Capacity: 1})
		if err != nil {
			note(err)
			return
		}
		// Each try is one batch: submit, then lease / heartbeat /
		// complete each case. The four calls are timed separately.
		var tSubmit, tLease, tBeat, tComplete time.Duration
		seq := 0
		round := func() {
			tSubmit, tLease, tBeat, tComplete = 0, 0, 0, 0
			for i := 0; i < batch; i++ {
				seq++
				s := spec
				s.Name = fmt.Sprintf("%s-%d", prefix, seq)
				t0 := time.Now()
				note(submit(suite.ID, s))
				tSubmit += time.Since(t0)
			}
			for i := 0; i < batch; i++ {
				t0 := time.Now()
				a, err := wc.Lease(worker)
				tLease += time.Since(t0)
				if err != nil || a == nil {
					note(fmt.Errorf("lease %d of %d: %v", i, batch, err))
					return
				}
				t0 = time.Now()
				_, err = wc.Heartbeat(worker, a.Run, a.Dispatch)
				tBeat += time.Since(t0)
				note(err)
				t0 = time.Now()
				note(wc.Complete(worker, a.Run, a.Dispatch, outcome))
				tComplete += time.Since(t0)
			}
		}
		best := map[string]time.Duration{}
		for try := 0; try < microTries; try++ {
			round()
			rows := map[string]time.Duration{"submit": tSubmit, "lease": tLease, "heartbeat": tBeat, "complete": tComplete}
			if !viaHTTP {
				rows = map[string]time.Duration{"inproc_lease_complete": tLease + tComplete}
			}
			for k, d := range rows {
				if old, ok := best[k]; !ok || d < old {
					best[k] = d
				}
			}
		}
		ref := m.ref()
		for k, d := range best {
			m.layer["fleet."+k+"_us"] = normalise(d, ref) * 1000 / batch
		}
		if st := coord.Stats(); st.Completed != st.Admitted || st.DuplicateCompletions != 0 {
			note(fmt.Errorf("micro fleet fixture: %+v", st))
		}
	}
	protocol("http", true)
	protocol("inproc", false)
	return firstErr
}

func must(err error) {
	if err != nil {
		panic("hbpbench: " + err.Error())
	}
}
