package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
)

// The lifecycle steps every runner shares, one copy each: an engine
// bounded by the run's context, the HBP deployment, and the sharded
// runners' timed run with its abort path, per-part collection and
// leak-checked teardown.

// newSim returns the sequential engine of one run. A non-nil ctx
// bounds it: the simulator polls ctx.Err at event-batch boundaries and
// an aborted RunUntil returns that error. The checkpoint never perturbs
// event order, so an uncancelled run is bit-identical with or without
// a context.
func newSim(ctx context.Context) *des.Simulator {
	sim := des.New()
	if ctx != nil {
		sim.SetInterrupt(ctx.Err)
	}
	return sim
}

// newSharded is newSim for the sharded engine at the given width (0 or
// 1 runs on one shard); it polls ctx.Err once per window barrier.
func newSharded(ctx context.Context, shards int) *des.ShardedSimulator {
	ss := des.NewSharded(0, max(shards, 1))
	if ctx != nil {
		ss.SetInterrupt(ctx.Err)
	}
	return ss
}

// deployHBP is the HBP deployment every runner makes: a roaming server
// agent on each of servers, the defense over nw, router agents on every
// router — or, when routers is non-nil, wherever it deploys them — and
// onCapture, if the run reacts to a capture, as its hook. The captures
// themselves stay in the defense's CaptureLog.
func deployHBP(nw *netsim.Network, pool *roaming.Pool, servers []*netsim.Node, isHost func(*netsim.Node) bool,
	cfg core.Config, onCapture func(core.Capture), routers func(*core.Defense)) (*core.Defense, []*roaming.ServerAgent, error) {
	var agents []*roaming.ServerAgent
	for _, s := range servers {
		agents = append(agents, roaming.NewServerAgent(pool, s))
	}
	def, err := core.New(nw, pool, isHost, cfg)
	if err != nil {
		return nil, nil, err
	}
	if routers == nil {
		def.DeployAll(agents)
	} else {
		routers(def)
		for _, sa := range agents {
			def.AttachServer(sa)
		}
	}
	def.OnCapture = onCapture
	return def, agents, nil
}

// appendPartLine appends part i's fingerprint line to b:
// "part<i> caps[<time>:<router>><attacker>,…] <line> ctrl=<ctrl>",
// each capture time with nine decimals.
func appendPartLine(b []byte, i int, caps []core.Capture, line string, ctrl int64) []byte {
	b = append(b, "part"...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, " caps["...)
	for j, c := range caps {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, c.Time, 'f', 9, 64)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(c.Router), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(c.Attacker), 10)
	}
	b = append(b, "] "...)
	b = append(b, line...)
	b = append(b, " ctrl="...)
	return strconv.AppendInt(b, ctrl, 10)
}

// shardedRun is what the sharded runners report alike.
type shardedRun struct {
	// Captures is the capture count over all parts.
	Captures int
	// CtrlMessages sums the per-part defenses' control overhead.
	CtrlMessages int64
	// QueueDrops is the cluster-wide drop-tail loss count.
	QueueDrops int64
	// EventsFired sums dispatched events over all shards; it is
	// identical at every shard count.
	EventsFired uint64
	// Wall is the wall-clock time of the event loop (the speedup
	// numerator).
	Wall time.Duration
	// Leak is the post-teardown resource audit (see LeakReport).
	Leak LeakReport

	partFPs []string
}

// Fingerprint is the determinism digest of the run: one line per part —
// its capture schedule (time, router, attacker), the runner's own
// counters and its control overhead — plus the cluster drop count. Two
// runs of one config at different shard counts must produce
// byte-identical fingerprints.
func (r *shardedRun) Fingerprint() string {
	return strings.Join(r.partFPs, "\n") + fmt.Sprintf("\ndrops=%d", r.QueueDrops)
}

// run is the one sharded lifecycle: the event loop up to the horizon,
// timed by the wall clock. An aborted run closes every part's defense
// and drains the cluster before it reports the error, so the process
// can run the next scenario. A completed one is collected part by part —
// line(i) renders the runner's own counters of part i and runs before
// that part's defense closes — and then drained and audited. Each
// part's capture schedule is read from its defense's CaptureLog.
func (r *shardedRun) run(what string, cl *netsim.Cluster, defs []*core.Defense, horizon float64, line func(i int) string) error {
	ss := cl.Sim
	start := time.Now() //hbplint:ignore determinism wall clock only times the host's execution for the speedup and sweep reports; it never feeds simulation state.
	if err := ss.RunUntil(horizon); err != nil {
		for _, d := range defs {
			d.Close()
		}
		cl.Drain()
		return fmt.Errorf("experiments: %s run aborted at t=%.1fs after %d events: %w", what, ss.Now(), ss.Fired(), err)
	}
	r.Wall = time.Since(start) //hbplint:ignore determinism wall clock only times the host's execution for the speedup and sweep reports; it never feeds simulation state.
	var buf []byte
	for i, d := range defs {
		caps := d.Captures()
		r.Captures += len(caps)
		r.CtrlMessages += d.MsgSent
		buf = appendPartLine(buf[:0], i, caps, line(i), d.MsgSent)
		r.partFPs = append(r.partFPs, string(buf))
		d.Close()
		r.Leak.DefenseState += d.StateSize()
	}
	r.QueueDrops = cl.TotalQueueDrops()
	r.EventsFired = ss.Fired()
	cl.Drain()
	r.Leak.PacketsOutstanding = cl.PacketsOutstanding()
	return nil
}
