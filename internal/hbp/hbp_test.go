package hbp

import (
	"testing"

	"repro/internal/des"
)

func TestWeakerOrder(t *testing.T) {
	near := &SessionCore{Dist: 1, Total: 5}
	far := &SessionCore{Dist: 9, Total: 50}
	unroutable := &SessionCore{Dist: -1, Total: 100}

	if w, tied := Weaker(far, near); !w || tied {
		t.Fatalf("farther session must rank weaker: w=%v tied=%v", w, tied)
	}
	if w, tied := Weaker(unroutable, far); !w || tied {
		t.Fatalf("unroutable must rank below every routable session: w=%v tied=%v", w, tied)
	}
	lessEvidence := &SessionCore{Dist: 1, Total: 2}
	if w, tied := Weaker(lessEvidence, near); !w || tied {
		t.Fatalf("same distance, fewer packets must rank weaker: w=%v tied=%v", w, tied)
	}
	twin := &SessionCore{Dist: 1, Total: 5}
	if _, tied := Weaker(near, twin); !tied {
		t.Fatal("equal distance and evidence must report a tie for the substrate tie-break")
	}
}

type fakeSession struct {
	SessionCore
	id int
}

func weakerFake(a, b *fakeSession) bool {
	if w, tied := Weaker(&a.SessionCore, &b.SessionCore); !tied {
		return w
	}
	return a.id > b.id
}

func TestEvictWeakest(t *testing.T) {
	table := map[int]*fakeSession{}
	for i, dist := range []int{3, 7, -1, 2} {
		table[i] = &fakeSession{SessionCore: SessionCore{Dist: dist}, id: i}
	}
	key := func(s *fakeSession) int { return s.id }

	// Incoming at distance 1 outranks the unroutable resident (id 2).
	evicted, ok := EvictWeakest(table, weakerFake, &fakeSession{SessionCore: SessionCore{Dist: 1}, id: 99}, key)
	if !ok || evicted.id != 2 {
		t.Fatalf("expected to evict the unroutable session, got ok=%v id=%v", ok, evicted)
	}
	if _, still := table[2]; still {
		t.Fatal("evicted session must be deleted from the table")
	}

	// Incoming weaker than every resident is refused; table unchanged.
	before := len(table)
	if _, ok := EvictWeakest(table, weakerFake, &fakeSession{SessionCore: SessionCore{Dist: -1}, id: 98}, key); ok {
		t.Fatal("weakest incoming session must be refused, not admitted")
	}
	if len(table) != before {
		t.Fatal("refused admission must not change the table")
	}
}

func TestEvictWeakestDeterministic(t *testing.T) {
	// Same residents inserted in different orders must shed the same
	// session: the order is total, so map iteration cannot matter.
	build := func(ids []int) map[int]*fakeSession {
		m := map[int]*fakeSession{}
		for _, id := range ids {
			m[id] = &fakeSession{SessionCore: SessionCore{Dist: 5, Total: 1}, id: id}
		}
		return m
	}
	key := func(s *fakeSession) int { return s.id }
	incoming := &fakeSession{SessionCore: SessionCore{Dist: 1}, id: -1}
	a, okA := EvictWeakest(build([]int{1, 2, 3, 4}), weakerFake, incoming, key)
	b, okB := EvictWeakest(build([]int{4, 3, 2, 1}), weakerFake, incoming, key)
	if !okA || !okB || a.id != b.id {
		t.Fatalf("eviction winner depends on insertion order: %v vs %v", a, b)
	}
	if a.id != 4 {
		t.Fatalf("tie on (dist,total) must break on the higher id: got %d", a.id)
	}
}

func TestBudgetFillDefaults(t *testing.T) {
	var b Budget
	b.FillDefaults()
	if b.Sessions != 64 || b.DedupEntries != 512 || b.PendingTransfers != 1024 ||
		b.ReplaySpan != 512 || b.ReplayStreams != 128 {
		t.Fatalf("unexpected defaults: %+v", b)
	}
	c := Budget{Sessions: 3, DedupEntries: 4, PendingTransfers: 5, ReplaySpan: 6, ReplayStreams: 7}
	c.FillDefaults()
	if c.Sessions != 3 || c.DedupEntries != 4 || c.PendingTransfers != 5 || c.ReplaySpan != 6 || c.ReplayStreams != 7 {
		t.Fatalf("explicit fields overwritten: %+v", c)
	}
}

func TestAuthTagCheck(t *testing.T) {
	a := NewAuth("test-chain:", []byte("key"), "test-mac")
	if a.Ready() {
		t.Fatal("unbuilt auth must not be ready")
	}
	if tag := a.Tag(0, []byte("msg")); tag != nil {
		t.Fatal("unbuilt auth must not sign")
	}
	if a.Check(0, []byte("msg"), []byte("tag")) {
		t.Fatal("unbuilt auth must not verify")
	}
	if err := a.Ensure(8); err != nil {
		t.Fatal(err)
	}
	msg := []byte("HonSesReq")
	tag := a.Tag(3, msg)
	if tag == nil || !a.Check(3, msg, tag) {
		t.Fatal("round trip failed")
	}
	if a.Check(4, msg, tag) {
		t.Fatal("tag must not verify under another epoch's key")
	}
	if a.Check(3, []byte("HonSesCancel"), tag) {
		t.Fatal("tag must not verify for different bytes")
	}
	if tag := a.Tag(8, msg); tag != nil {
		t.Fatal("epoch outside the chain must not sign")
	}

	// Domain separation: a different chain label (the other plane)
	// yields unrelated keys even for the same base key.
	b := NewAuth("other-chain:", []byte("key"), "test-mac")
	if err := b.Ensure(8); err != nil {
		t.Fatal(err)
	}
	if b.Check(3, msg, tag) {
		t.Fatal("cross-plane tag must not verify")
	}

	// Ensure is idempotent and only extends.
	if err := a.Ensure(4); err != nil {
		t.Fatal(err)
	}
	if !a.Check(3, msg, tag) {
		t.Fatal("shrinking Ensure must not rebuild the chain")
	}
}

func TestRearmLease(t *testing.T) {
	sim := des.New()
	var c SessionCore
	fired := 0
	c.RearmLease(sim, 1.0, func() { fired++ })
	// Re-arming replaces the first lease entirely.
	c.RearmLease(sim, 2.0, func() { fired += 10 })
	if err := sim.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("want only the re-armed lease to fire, got %d", fired)
	}
	// Non-positive lifetime disables expiry.
	fired = 0
	c.RearmLease(sim, 0, func() { fired++ })
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("zero lifetime must not schedule an expiry")
	}
	// Drop cancels a pending lease.
	c.RearmLease(sim, 1.0, func() { fired++ })
	c.Drop()
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("dropped lease must not fire")
	}
}

func TestWatchdog(t *testing.T) {
	sim := des.New()
	w := &Watchdog{Interval: 1}
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if ticks < 3 {
			w.Observe(ticks, 0)
			w.Rearm(sim, tick)
		}
	}
	w.Arm(sim, 0, 0, tick)
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("want 3 ticks, got %d", ticks)
	}

	// Stall semantics: requested + hp advanced + captures frozen.
	w.Observe(5, 2)
	if !w.Stalled(true, 6, 2) {
		t.Fatal("hp advanced with frozen captures must stall")
	}
	if w.Stalled(false, 6, 2) {
		t.Fatal("unrequested window cannot stall")
	}
	if w.Stalled(true, 5, 2) {
		t.Fatal("no new attack packets is not a stall (attackers may be gone)")
	}
	if w.Stalled(true, 6, 3) {
		t.Fatal("capture progress is not a stall")
	}

	// Disarm cancels the pending tick.
	fired := false
	w.Arm(sim, 0, 0, func() { fired = true })
	w.Disarm()
	if err := sim.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("disarmed watchdog must not tick")
	}
}

func TestCaptureLogAndStateMeter(t *testing.T) {
	var l CaptureLog[int]
	seen := []int{}
	l.OnCapture = func(c int) { seen = append(seen, c) }
	l.Record(7)
	l.Record(9)
	if l.CaptureCount() != 2 || len(l.Captures()) != 2 || l.Captures()[1] != 9 {
		t.Fatalf("capture log broken: %v", l.Captures())
	}
	if len(seen) != 2 || seen[0] != 7 {
		t.Fatalf("hook not fired in order: %v", seen)
	}

	var m StateMeter
	m.Note(4)
	m.Note(2)
	if m.PeakState != 4 {
		t.Fatalf("peak must be monotone: %d", m.PeakState)
	}
}
