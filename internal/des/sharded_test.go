package des

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ringCell is one logical model part of the synthetic sharded
// workload: it ticks locally, mutates private state, and forwards
// messages to the next cell over a Channel. Cells derive their RNG
// streams from stable cell labels, so a cell's behavior is a pure
// function of the scenario seed — never of where it is placed.
type ringCell struct {
	sim   *Simulator
	rng   *RNG
	out   *Channel
	next  *ringCell
	id    int
	trace []string
}

const ringLookahead = 0.01

// ringMsg crosses cell boundaries. A fresh value is sent every time:
// payloads cross shards as shared references, so they must not be
// mutated by the sender afterwards.
type ringMsg struct{ depth int }

func (c *ringCell) record(tag string, depth int) {
	c.trace = append(c.trace, fmt.Sprintf("%.9f/%s%d", c.sim.Now(), tag, depth))
}

func (c *ringCell) tick(depth int) {
	c.record("t", depth)
	if depth >= 5 {
		return
	}
	// Quantized delays force timestamp ties between local events and
	// channel deliveries — exactly the collisions whose ordering the
	// partition-independent keys must pin down.
	for i := 0; i < 2; i++ {
		d := depth + 1
		c.sim.After(0.005*float64(1+c.rng.Intn(3)), func() { c.tick(d) })
	}
	c.out.Send(ringLookahead*float64(1+c.rng.Intn(2)), ringDeliver, c.next, &ringMsg{depth: depth + 1}, 0)
}

// ringDeliver is the package-level TypedFunc for ring messages.
func ringDeliver(a, b any, _ uint8) {
	c := a.(*ringCell)
	m := b.(*ringMsg)
	c.record("m", m.depth)
	if m.depth < 5 {
		c.tick(m.depth + 1)
	}
}

// runRing executes the synthetic workload with the given number of
// cells mapped round-robin onto the given number of shards and returns
// the concatenated per-cell traces plus total fired events.
func runRing(t *testing.T, seed int64, cells, shards int) (string, uint64) {
	t.Helper()
	ss := NewSharded(seed, shards)
	ring := make([]*ringCell, cells)
	for i := range ring {
		ring[i] = &ringCell{
			sim: ss.Shard(i % shards),
			rng: NewRNG(DeriveSeed(seed, int64(100+i))),
			id:  i,
		}
	}
	// Channels in cell order: creation order is the delivery tie-break,
	// so it must be identical at every shard count. Cell i's messages
	// deliver to cell i+1, which lives on shard (i+1) mod shards.
	for i, c := range ring {
		c.out = ss.NewChannel(i%shards, (i+1)%cells%shards, ringLookahead)
		c.next = ring[(i+1)%cells]
	}
	for i, c := range ring {
		c := c
		c.sim.At(0.005*float64(i+1), func() { c.tick(0) })
	}
	if err := ss.RunUntil(3); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sb strings.Builder
	for _, c := range ring {
		fmt.Fprintf(&sb, "cell%d:%s\n", c.id, strings.Join(c.trace, ","))
	}
	return sb.String(), ss.Fired()
}

func TestShardedMatchesAcrossShardCounts(t *testing.T) {
	const cells = 6
	ref, refFired := runRing(t, 42, cells, 1)
	if !strings.Contains(ref, "/m") {
		t.Fatalf("workload produced no cross-cell deliveries:\n%s", ref)
	}
	for _, shards := range []int{2, 3, 6} {
		got, fired := runRing(t, 42, cells, shards)
		if got != ref {
			t.Fatalf("shards=%d trace diverged from shards=1\n--- shards=1\n%s--- shards=%d\n%s", shards, ref, shards, got)
		}
		if fired != refFired {
			t.Fatalf("shards=%d fired %d events, shards=1 fired %d", shards, fired, refFired)
		}
	}
	// Different seeds must diverge (the fingerprint is not vacuous).
	other, _ := runRing(t, 43, cells, 2)
	if other == ref {
		t.Fatal("seed 43 produced the same trace as seed 42")
	}
}

func TestChannelSendBelowLookaheadPanics(t *testing.T) {
	ss := NewSharded(1, 2)
	ch := ss.NewChannel(0, 1, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("send below lookahead did not panic")
		}
	}()
	ch.Send(0.25, ringDeliver, nil, &ringMsg{}, 0)
}

func TestShardedStopAndInterrupt(t *testing.T) {
	ss := NewSharded(1, 2)
	ss.NewChannel(0, 1, 0.01)
	sim := ss.Shard(1)
	fired := 0
	var loop func()
	loop = func() {
		fired++
		if fired == 10 {
			sim.Stop()
		}
		sim.After(0.001, loop)
	}
	sim.At(0, loop)
	if err := ss.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// A shard's Stop ends its window after the current event and the
	// run at the next barrier.
	if fired != 10 {
		t.Fatalf("stopped after %d events, want 10", fired)
	}

	boom := errors.New("cancelled")
	ss.SetInterrupt(func() error { return boom })
	if err := ss.Run(); !errors.Is(err, boom) {
		t.Fatalf("want interrupt error, got %v", err)
	}
	if fired != 10 {
		t.Fatalf("an event fired after the interrupt: %d", fired)
	}
	// Removing the checkpoint lets the run resume.
	ss.SetInterrupt(nil)
	if err := ss.RunUntil(0.1); err != nil {
		t.Fatalf("run after removing the interrupt: %v", err)
	}
	if fired <= 10 {
		t.Fatal("run did not resume after the interrupt was removed")
	}
}

// TestShardedBarrierHook: the hook runs once per window barrier, after
// every outbox has been injected, and removing it stops the calls.
func TestShardedBarrierHook(t *testing.T) {
	ss := NewSharded(1, 2)
	ch := ss.NewChannel(0, 1, 0.01)
	delivered := 0
	for i := 0; i < 20; i++ {
		ss.Shard(0).At(0.02*float64(i), func() {
			ch.Send(0.01, func(any, any, uint8) { delivered++ }, nil, nil, 0)
		})
	}
	barriers := 0
	ss.SetBarrier(func() {
		barriers++
		for _, c := range ss.chans {
			if len(c.queue) != 0 {
				t.Errorf("barrier %d: hook ran with %d messages still in an outbox", barriers, len(c.queue))
			}
		}
	})
	if err := ss.RunUntil(0.2); err != nil {
		t.Fatal(err)
	}
	// Sends 20 ms apart never share a 10 ms window: at least ten
	// windows by t=0.2, each closed by a barrier.
	if delivered != 10 || barriers < 10 {
		t.Fatalf("%d deliveries, %d barriers by t=0.2; want 10 and at least 10", delivered, barriers)
	}
	ss.SetBarrier(nil)
	before := barriers
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 20 || barriers != before {
		t.Fatalf("after removal: %d deliveries, %d more barrier calls; want 20 and none", delivered, barriers-before)
	}
}

func TestShardedDrainAndReset(t *testing.T) {
	ss := NewSharded(9, 2)
	ch := ss.NewChannel(0, 1, 0.01)
	ss.Shard(0).At(0.5, func() {})
	ch.Send(0.02, ringDeliver, nil, &ringMsg{depth: 1}, 0)
	if got := ss.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (one event + one buffered message)", got)
	}
	var drained int
	ss.DrainPending(func(DrainedEvent) { drained++ })
	if drained != 2 {
		t.Fatalf("drained %d, want 2", drained)
	}
	if got := ss.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
	// The engine stays usable: a drained channel delivers again.
	ch.Send(0.02, func(any, any, uint8) { drained++ }, nil, nil, 0)
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	if drained != 3 {
		t.Fatalf("post-drain delivery did not fire (count %d)", drained)
	}
}

func TestShardedRunUntilAdvancesClocks(t *testing.T) {
	ss := NewSharded(3, 3)
	ss.Shard(1).At(0.25, func() {})
	if err := ss.RunUntil(2); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 3; i++ {
		if now := ss.Shard(i).Now(); now != 2 {
			t.Fatalf("shard %d clock = %v, want 2", i, now)
		}
	}
	if now := ss.Now(); now != 2 {
		t.Fatalf("Now = %v, want 2", now)
	}
	if math.IsInf(ss.Now(), 0) {
		t.Fatal("Now is infinite")
	}
}

// pingDeliver bounces a message back over the reverse channel: a is
// the channel to reply on, b the one the message came through.
func pingDeliver(a, b any, _ uint8) {
	a.(*Channel).Send(1, pingDeliver, b, a, 0)
}

// pingPongMallocs runs two shards that each receive and answer one
// message per window for the given number of windows and returns the
// heap allocations of the run alone.
func pingPongMallocs(t *testing.T, windows int) uint64 {
	t.Helper()
	ss := NewSharded(1, 2)
	ab, ba := ss.NewChannel(0, 1, 1), ss.NewChannel(1, 0, 1)
	ab.Send(1, pingDeliver, ba, ab, 0)
	ba.Send(1, pingDeliver, ab, ba, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ss.RunUntil(float64(windows) + 0.5); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, want := ss.Fired(), uint64(2*windows); got != want {
		t.Fatalf("%d windows: fired %d, want %d", windows, got, want)
	}
	return after.Mallocs - before.Mallocs
}

// TestNewShardedAllocBytes: building a sharded simulator costs each
// shard its Simulator and its slots in the per-barrier tables, under
// 2 KB a shard. An RNG stream per shard (a math/rand source of about
// 4.9 KB) would not fit.
func TestNewShardedAllocBytes(t *testing.T) {
	const shards, builds = 8, 100
	keep := make([]*ShardedSimulator, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewSharded(1, shards)
	}
	runtime.ReadMemStats(&after)
	perShard := (after.TotalAlloc - before.TotalAlloc) / (builds * shards)
	if perShard >= 2048 {
		t.Fatalf("NewSharded(1, %d) allocates %d B per shard, want < 2048", shards, perShard)
	}
	t.Logf("%d B per shard", perShard)
}

// TestBarrierAllocsFlatInWindows: a barrier allocates nothing, so a
// run's allocations do not grow with its window count. Both shards
// are runnable in every window, so every window goes through the
// workers.
func TestBarrierAllocsFlatInWindows(t *testing.T) {
	pingPongMallocs(t, 10) // warm the runtime's goroutine and stack caches
	short, long := pingPongMallocs(t, 100), pingPongMallocs(t, 10000)
	if diff := int64(long) - int64(short); diff > 16 || diff < -16 {
		t.Fatalf("100 windows: %d allocs; 10000 windows: %d allocs; want within 16 of each other", short, long)
	}
}

// goroutineID returns the calling goroutine's id, read from the
// header of its stack trace ("goroutine 17 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestWorkersEndWithRun: shard 0 runs every window on the goroutine
// that called RunUntil, every other shard runs every window on one
// worker of its own — also in the windows where it is the only shard
// with work — and every return path ends the n−1 workers: completion,
// the event limit, an interrupt, and a shard's Stop.
func TestWorkersEndWithRun(t *testing.T) {
	const shards = 3
	boom := errors.New("cancelled")
	cases := []struct {
		name  string
		setup func(ss *ShardedSimulator)
		want  error
	}{
		{"done", func(*ShardedSimulator) {}, nil},
		{"event-limit", func(ss *ShardedSimulator) { ss.Shard(2).EventLimit = 15 }, ErrEventLimit},
		{"interrupt", func(ss *ShardedSimulator) {
			barriers := 0
			prev := ss.interrupt
			ss.SetInterrupt(func() error {
				if barriers++; barriers > 14 {
					return boom
				}
				return prev()
			})
		}, boom},
		{"stop", func(ss *ShardedSimulator) {
			sim := ss.Shard(1)
			sim.At(6.5, sim.Stop)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			caller := goroutineID()
			ss := NewSharded(1, shards)
			ss.NewChannel(0, 1, 1)
			// Every shard ticks at 0, 1, 2, …; shards 0 and 1 stop
			// after 10, so from then on shard 2 is the only runnable
			// shard.
			ids := make([]map[string]int, shards)
			for i := range ids {
				ids[i] = map[string]int{}
				sim, seen, last := ss.Shard(i), ids[i], 10.0
				if i == shards-1 {
					last = math.Inf(1)
				}
				var tick func()
				tick = func() {
					seen[goroutineID()]++
					if sim.Now() < last {
						sim.After(1, tick)
					}
				}
				sim.At(0, tick)
			}
			// The interrupt checkpoint runs on the coordinator at every
			// barrier: it counts the goroutines the run keeps.
			extra := 0
			ss.SetInterrupt(func() error {
				extra = max(extra, runtime.NumGoroutine()-base)
				return nil
			})
			tc.setup(ss)
			if err := ss.RunUntil(20.5); !errors.Is(err, tc.want) {
				t.Fatalf("RunUntil = %v, want %v", err, tc.want)
			}
			workers := map[string]int{}
			for i, seen := range ids {
				ticks := 0
				for id, n := range seen {
					ticks += n
					if i == 0 && id != caller {
						t.Errorf("shard 0 ran %d ticks on goroutine %s, not on the caller %s", n, id, caller)
					}
					if i > 0 {
						if id == caller {
							t.Errorf("shard %d ran %d ticks on the caller's goroutine", i, n)
						}
						if j, ok := workers[id]; ok && j != i {
							t.Errorf("shards %d and %d share goroutine %s", j, i, id)
						}
						workers[id] = i
					}
				}
				if len(seen) != 1 || ticks < 5 {
					t.Errorf("shard %d ran %d ticks on %d goroutines, want at least 5 on one: %v", i, ticks, len(seen), seen)
				}
			}
			if extra != shards-1 {
				t.Errorf("the run kept %d goroutines besides the caller, want %d workers", extra, shards-1)
			}
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines 1 s after the run returned, %d before it", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// idleCell is one end of a busy channel in the idle-channel workload.
// It hashes every event it sees, in dispatch order.
type idleCell struct {
	sim  *Simulator
	hash uint64
	// sent lists a sender's messages, in send order.
	sent []*idleMsg
}

func (c *idleCell) record(tag string, n int) {
	for _, b := range []byte(fmt.Sprintf("%.9f/%s%d;", c.sim.Now(), tag, n)) {
		c.hash = (c.hash ^ uint64(b)) * 1099511628211
	}
}

// idleMsg is one message on a busy channel; id names it within its
// sender.
type idleMsg struct{ id, delivered int }

func idleDeliver(a, b any, _ uint8) {
	msg := b.(*idleMsg)
	msg.delivered++
	a.(*idleCell).record("m", msg.id)
}

// idleModel is a sharded model with many channels, few of them busy:
// a sender and a receiver cell per busy channel. Channel i runs from
// shard i mod n to shard (i+1) mod n, so the busy ones cross shards.
type idleModel struct {
	ss       *ShardedSimulator
	busy     []*Channel
	from, to []*idleCell
}

// send sends a fresh message on busy channel k with the given delay.
func (m *idleModel) send(k int, delay float64) *idleMsg {
	from := m.from[k]
	msg := &idleMsg{id: len(from.sent)}
	from.sent = append(from.sent, msg)
	m.busy[k].Send(delay, idleDeliver, m.to[k], msg, 0)
	return msg
}

const (
	idleChannels  = 1000
	idleLookahead = 0.1
)

var idleBusy = []int{7, 500, 998}

func newIdleModel(shards int) *idleModel {
	m := &idleModel{ss: NewSharded(5, shards)}
	var chans []*Channel
	for i := 0; i < idleChannels; i++ {
		chans = append(chans, m.ss.NewChannel(i%shards, (i+1)%shards, idleLookahead))
	}
	for k, id := range idleBusy {
		ch := chans[id]
		from := &idleCell{sim: m.ss.Shard(ch.src)}
		to := &idleCell{sim: m.ss.Shard(ch.dst)}
		m.busy = append(m.busy, ch)
		m.from, m.to = append(m.from, from), append(m.to, to)
		// The sender sends every 0.05 s with a delay of one or two
		// lookaheads; the receiver ticks every 0.1 s, so deliveries tie
		// with its local events.
		var send func()
		send = func() {
			n := len(from.sent)
			from.record("s", n)
			m.send(k, idleLookahead*float64(1+n%2))
			from.sim.After(0.05, send)
		}
		from.sim.At(0.01*float64(k), send)
		var tick func()
		n := 0
		tick = func() {
			n++
			to.record("t", n)
			to.sim.After(idleLookahead, tick)
		}
		to.sim.At(0, tick)
	}
	return m
}

// dispatchHash combines the cells' event hashes in cell order.
func (m *idleModel) dispatchHash() uint64 {
	var h uint64
	for k := range m.busy {
		h = h*31 + m.from[k].hash
		h = h*31 + m.to[k].hash
	}
	return h
}

// TestIdleChannelsAndDrain: with 1000 channels of which 3 carry
// traffic, the two-shard run dispatches what the one-shard run does;
// after a Stop, DrainPending visits every undelivered message once,
// a second drain visits none, and a resumed run delivers only what is
// sent after the drain.
func TestIdleChannelsAndDrain(t *testing.T) {
	one, two := newIdleModel(1), newIdleModel(2)
	for _, m := range []*idleModel{one, two} {
		if err := m.ss.RunUntil(3); err != nil {
			t.Fatal(err)
		}
	}
	if one.dispatchHash() != two.dispatchHash() || one.ss.Fired() != two.ss.Fired() {
		t.Fatalf("2 shards: hash %x after %d events; 1 shard: hash %x after %d events",
			two.dispatchHash(), two.ss.Fired(), one.dispatchHash(), one.ss.Fired())
	}

	// Stop shard 0 mid-run. Messages sent before the stop and not yet
	// delivered wait in the heaps; those sent after the run wait in the
	// outboxes, two of them on one channel.
	m := newIdleModel(2)
	m.ss.Shard(0).At(1.234, m.ss.Shard(0).Stop)
	if err := m.ss.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 0, 2} {
		m.send(k, idleLookahead)
	}
	pending := m.ss.Pending()
	drained := map[*idleMsg]int{}
	visits := 0
	m.ss.DrainPending(func(ev DrainedEvent) {
		visits++
		if msg, ok := ev.B.(*idleMsg); ok {
			drained[msg]++
		}
	})
	if visits != pending {
		t.Fatalf("drain visited %d events, Pending was %d", visits, pending)
	}
	undelivered := 0
	for k, from := range m.from {
		for _, msg := range from.sent {
			want := 0
			if msg.delivered == 0 {
				want = 1
				undelivered++
			}
			if drained[msg] != want {
				t.Fatalf("channel %d message %d (delivered %d times) drained %d times, want %d", k, msg.id, msg.delivered, drained[msg], want)
			}
		}
	}
	if undelivered < 4 {
		t.Fatalf("only %d undelivered messages at the drain; the test needs some in heaps and some in outboxes", undelivered)
	}
	m.ss.DrainPending(func(ev DrainedEvent) { t.Errorf("second drain visited an event at t=%v", ev.Time) })
	if n := m.ss.Pending(); n != 0 {
		t.Fatalf("Pending after drain = %d", n)
	}

	// Resume: only the messages sent after the drain arrive, once each.
	fired := m.ss.Fired()
	var fresh []*idleMsg
	for k := range m.busy {
		fresh = append(fresh, m.send(k, idleLookahead))
	}
	if n := m.ss.Pending(); n != len(fresh) {
		t.Fatalf("Pending after the fresh sends = %d, want %d", n, len(fresh))
	}
	if err := m.ss.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if got := m.ss.Fired() - fired; got != uint64(len(fresh)) {
		t.Fatalf("resumed run fired %d events, want %d", got, len(fresh))
	}
	for k, msg := range fresh {
		if msg.delivered != 1 {
			t.Fatalf("channel %d: the message sent after the drain was delivered %d times", k, msg.delivered)
		}
	}
}
