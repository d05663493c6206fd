package des

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
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

func TestShardSeedsDistinctAndStable(t *testing.T) {
	for _, base := range []int64{0, 1, 42, -7, 1 << 40} {
		seen := map[int64]int{}
		for i := 0; i < 64; i++ {
			s := ShardSeed(base, i)
			if j, dup := seen[s]; dup {
				t.Fatalf("base %d: shards %d and %d share seed %d", base, j, i, s)
			}
			if s == base {
				t.Fatalf("base %d: shard %d seed equals the base seed", base, i)
			}
			seen[s] = i
		}
	}
	// Stability across partitionings: the seed for a given shard label
	// is a pure function of (base, label), independent of how many
	// shards the engine was built with.
	small, large := NewSharded(7, 2), NewSharded(7, 16)
	for i := 0; i < 2; i++ {
		a, b := small.ShardRNG(i).Int63(), large.ShardRNG(i).Int63()
		if a != b {
			t.Fatalf("shard %d stream differs between 2-shard and 16-shard engines: %d vs %d", i, a, b)
		}
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

func TestShardedEventLimit(t *testing.T) {
	ss := NewSharded(1, 2)
	ss.EventLimit = 50
	for i := 0; i < 2; i++ {
		sim := ss.Shard(i)
		var loop func()
		loop = func() { sim.After(0.001, loop) }
		sim.At(0, loop)
	}
	if err := ss.Run(); !errors.Is(err, ErrEventLimit) {
		t.Fatalf("want ErrEventLimit, got %v", err)
	}
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
