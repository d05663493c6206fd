package bounded

import (
	"runtime"
	"slices"
	"testing"
)

// bytesAllocated returns how many heap bytes build allocates, read
// from runtime.MemStats.TotalAlloc around the call. keep holds the
// result so the compiler cannot drop the allocation.
func bytesAllocated(build func() any) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCapsAreNotSizeHints: a cap bounds a set, it does not pre-pay
// for it. Before any insert, the 65 536-entry dedup set a roaming
// server makes twice and the default replay window cost less than a
// KiB each.
func TestCapsAreNotSizeHints(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() any
	}{
		{"NewDedup(1<<16)", func() any { return NewDedup(1 << 16) }},
		{"NewReplayWindow(512, 128)", func() any { return NewReplayWindow(512, 128) }},
	} {
		if got := bytesAllocated(tc.build); got >= 1024 {
			t.Errorf("%s allocates %d B before its first insert, want < 1 KiB", tc.name, got)
		}
	}
}

// TestDedupResetRefillEvictsInSameOrder fills a set past its cap,
// resets it and fills it again: the second pass must forget
// identifiers in the same FIFO order as the first, because the ring,
// not the map's size, decides eviction.
func TestDedupResetRefillEvictsInSameOrder(t *testing.T) {
	const capacity = 5
	ids := []int64{9, 3, 7, 3, 1, 12, 4, 9, 30, 2, 7, 11, 5}
	// pass inserts ids and records, after each insert, which of them
	// the set still remembers.
	pass := func(d *Dedup) [][]int64 {
		var remembered [][]int64
		for _, id := range ids {
			d.Check(id)
			var now []int64
			for _, x := range ids {
				if d.Seen(x) && !slices.Contains(now, x) {
					now = append(now, x)
				}
			}
			remembered = append(remembered, now)
		}
		return remembered
	}
	d := NewDedup(capacity)
	first := pass(d)
	if d.Len() != capacity || d.Evictions == 0 {
		t.Fatalf("first pass left len %d, %d evictions: not filled past the cap", d.Len(), d.Evictions)
	}
	evictions := d.Evictions
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("len %d after Reset", d.Len())
	}
	second := pass(d)
	for i := range first {
		if !slices.Equal(first[i], second[i]) {
			t.Fatalf("after insert %d (id %d): remembered %v before Reset, %v after", i, ids[i], first[i], second[i])
		}
	}
	if d.Evictions != 2*evictions {
		t.Fatalf("evictions = %d after two passes, want %d", d.Evictions, 2*evictions)
	}
}

func TestDedupSuppressesDuplicates(t *testing.T) {
	d := NewDedup(8)
	if d.Check(1) {
		t.Fatal("fresh id reported as duplicate")
	}
	if !d.Check(1) {
		t.Fatal("repeat not suppressed")
	}
	if d.Len() != 1 {
		t.Fatalf("len = %d, want 1", d.Len())
	}
}

func TestDedupEvictsOldestFirst(t *testing.T) {
	d := NewDedup(3)
	for id := int64(1); id <= 3; id++ {
		d.Check(id)
	}
	// Inserting a 4th evicts id 1 (the oldest), nothing else.
	d.Check(4)
	if d.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", d.Evictions)
	}
	if d.Seen(1) {
		t.Fatal("oldest id survived eviction")
	}
	for id := int64(2); id <= 4; id++ {
		if !d.Seen(id) {
			t.Fatalf("id %d wrongly evicted", id)
		}
	}
	// A replay of the evicted id is processed again (the bounded-memory
	// tradeoff) and re-enters the window, evicting id 2.
	if d.Check(1) {
		t.Fatal("evicted id still suppressed")
	}
	if d.Seen(2) {
		t.Fatal("FIFO order violated: 2 should be the second eviction")
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", d.Len())
	}
}

func TestDedupStaysWithinCapUnderFlood(t *testing.T) {
	d := NewDedup(16)
	for id := int64(0); id < 10000; id++ {
		d.Check(id)
	}
	if d.Len() != 16 {
		t.Fatalf("len = %d after flood, want 16", d.Len())
	}
	if d.Evictions != 10000-16 {
		t.Fatalf("evictions = %d, want %d", d.Evictions, 10000-16)
	}
}

func TestDedupRejectsNonPositiveCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for cap 0")
		}
	}()
	NewDedup(0)
}

func TestReplayWindowAcceptsEachSeqOnce(t *testing.T) {
	w := NewReplayWindow(64, 4)
	for seq := int64(1); seq <= 100; seq++ {
		if !w.Accept(7, seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
	}
	for seq := int64(60); seq <= 100; seq++ {
		if w.Accept(7, seq) {
			t.Fatalf("replayed seq %d accepted", seq)
		}
	}
	if w.Replays != 41 {
		t.Fatalf("replays = %d, want 41", w.Replays)
	}
}

func TestReplayWindowAcceptsOutOfOrderInsideSpan(t *testing.T) {
	w := NewReplayWindow(8, 4)
	if !w.Accept(1, 10) {
		t.Fatal("first seq rejected")
	}
	// Out of order but within span: fresh, accepted once.
	if !w.Accept(1, 5) {
		t.Fatal("in-window out-of-order seq rejected")
	}
	if w.Accept(1, 5) {
		t.Fatal("in-window replay accepted")
	}
	// Below the window: indistinguishable from a replay, rejected.
	if w.Accept(1, 2) {
		t.Fatal("below-window seq accepted")
	}
}

func TestReplayWindowRejectsUnsequenced(t *testing.T) {
	w := NewReplayWindow(8, 2)
	if w.Accept(1, 0) || w.Accept(1, -3) {
		t.Fatal("non-positive seq accepted")
	}
}

func TestReplayWindowStreamBudget(t *testing.T) {
	w := NewReplayWindow(8, 2)
	w.Accept(1, 1)
	w.Accept(2, 1)
	w.Accept(3, 1) // evicts stream 1 (oldest admission)
	if w.Streams() != 2 {
		t.Fatalf("streams = %d, want 2", w.Streams())
	}
	if w.StreamEvictions != 1 {
		t.Fatalf("stream evictions = %d, want 1", w.StreamEvictions)
	}
	// Stream 1's history is gone: its old seq is fresh again.
	if !w.Accept(1, 1) {
		t.Fatal("evicted stream's seq rejected")
	}
}

func TestReplayWindowLargeJumpClearsBitmap(t *testing.T) {
	w := NewReplayWindow(128, 2)
	w.Accept(1, 1)
	if !w.Accept(1, 100000) {
		t.Fatal("large jump rejected")
	}
	if w.Accept(1, 100000) {
		t.Fatal("replay after jump accepted")
	}
	if !w.Accept(1, 99990) {
		t.Fatal("in-window seq after jump rejected")
	}
}
