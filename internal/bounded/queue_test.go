package bounded

import "testing"

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](100)
	for i := 0; i < 50; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected under capacity", i)
		}
	}
	for i := 0; i < 50; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueAdmissionControl(t *testing.T) {
	q := NewQueue[string](3)
	for _, s := range []string{"a", "b", "c"} {
		if !q.Push(s) {
			t.Fatalf("push %q rejected under capacity", s)
		}
	}
	if !q.Full() {
		t.Fatal("queue not full at capacity")
	}
	if q.Push("overflow") {
		t.Fatal("push admitted past capacity")
	}
	if q.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", q.Rejected)
	}
	// A pop frees exactly one admission slot.
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("pop = %q, want a", v)
	}
	if !q.Push("d") {
		t.Fatal("push rejected after pop freed a slot")
	}
	want := []string{"b", "c", "d"}
	for _, w := range want {
		if v, _ := q.Pop(); v != w {
			t.Fatalf("pop = %q, want %q", v, w)
		}
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue[int](4)
	next, expect := 0, 0
	for round := 0; round < 25; round++ {
		for q.Push(next) {
			next++
		}
		v, ok := q.Pop()
		if !ok || v != expect {
			t.Fatalf("round %d: pop = %d,%v want %d,true", round, v, ok, expect)
		}
		expect++
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d, want 3", q.Len())
	}
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewQueue(0) did not panic")
		}
	}()
	NewQueue[int](0)
}

func TestDedupReset(t *testing.T) {
	d := NewDedup(4)
	for i := int64(0); i < 6; i++ {
		d.Check(i)
	}
	if d.Len() != 4 || d.Evictions != 2 {
		t.Fatalf("len=%d evictions=%d before reset", d.Len(), d.Evictions)
	}
	d.Reset()
	if d.Len() != 0 {
		t.Fatalf("len = %d after Reset, want 0", d.Len())
	}
	if d.Evictions != 2 {
		t.Fatalf("Reset wiped the eviction counter (= %d)", d.Evictions)
	}
	// Fully functional after reset: old ids are forgotten, capacity
	// and FIFO eviction behave as on a fresh set.
	for i := int64(0); i < 4; i++ {
		if d.Check(i) {
			t.Fatalf("id %d remembered across Reset", i)
		}
	}
	if d.Check(99) {
		t.Fatal("fresh id reported duplicate")
	}
	if !d.Seen(1) || d.Seen(0) {
		t.Fatal("post-reset eviction order wrong")
	}
}

// TestQueueRemove: Remove takes out the oldest match anywhere in a
// wrapped ring, keeps the rest in order, and frees its slot.
func TestQueueRemove(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 6; i++ { // wrap the ring: head is not at index 0
		q.Push(i)
		if i >= 2 {
			q.Pop()
		}
	}
	q.Push(6)
	q.Push(7) // holds 4 5 6 7, full
	if v, ok := q.Peek(); !ok || v != 4 || q.Len() != 4 {
		t.Fatalf("peek = %d,%v len %d, want 4,true len 4", v, ok, q.Len())
	}
	if q.Remove(func(v int) bool { return v == 9 }) {
		t.Fatal("removed an element that is not queued")
	}
	if !q.Remove(func(v int) bool { return v == 6 }) || q.Full() {
		t.Fatalf("remove 6: len %d, want a free slot", q.Len())
	}
	if !q.Push(8) {
		t.Fatal("push rejected after remove freed a slot")
	}
	for _, w := range []int{4, 5, 7, 8} {
		if v, _ := q.Pop(); v != w {
			t.Fatalf("pop = %d, want %d", v, w)
		}
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on an empty queue succeeded")
	}
}
