package hashchain

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
)

// referenceActiveSet is ActiveSet as first written: a fresh HMAC per
// Fisher–Yates draw. It pins the schedule's bytes — every client,
// server and figure derives its active sets from them — against any
// rewrite of ActiveSet.
func referenceActiveSet(key Key, n, k int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	ctr := uint64(0)
	next := func(bound int) int {
		mac := hmac.New(sha256.New, key[:])
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], ctr)
		ctr++
		mac.Write(buf[:])
		sum := mac.Sum(nil)
		v := binary.BigEndian.Uint64(sum[:8])
		return int(v % uint64(bound))
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

// goldenKeys are the two fixed keys of TestActiveSetGolden: a chain
// key and a byte pattern.
func goldenKeys() [2]Key {
	var pattern Key
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	chainKey, _ := MustGenerate([]byte("active-set-golden"), 1).Key(0)
	return [2]Key{chainKey, pattern}
}

// TestActiveSetGolden holds ActiveSet to outputs recorded from the
// one-HMAC-per-draw implementation (referenceActiveSet).
func TestActiveSetGolden(t *testing.T) {
	keys := goldenKeys()
	golden := []struct {
		key  int
		n, k int
		want []int
	}{
		{0, 1, 0, []int{}},
		{0, 1, 1, []int{0}},
		{0, 5, 3, []int{4, 1, 0}},
		{0, 10, 3, []int{7, 8, 0}},
		{0, 64, 5, []int{23, 2, 56, 45, 48}},
		{1, 1, 0, []int{}},
		{1, 1, 1, []int{0}},
		{1, 5, 3, []int{0, 1, 4}},
		{1, 10, 3, []int{7, 6, 4}},
		{1, 64, 5, []int{3, 11, 57, 2, 8}},
	}
	for _, g := range golden {
		key := keys[g.key]
		got := ActiveSet(key, g.n, g.k)
		if !slices.Equal(got, g.want) {
			t.Errorf("key %d (n,k)=(%d,%d): ActiveSet = %v, want %v", g.key, g.n, g.k, got, g.want)
		}
		if ref := referenceActiveSet(key, g.n, g.k); !slices.Equal(ref, g.want) {
			t.Errorf("key %d (n,k)=(%d,%d): reference = %v, want %v", g.key, g.n, g.k, ref, g.want)
		}
	}
}

// FuzzActiveSetMatchesReference compares ActiveSet with the reference
// over arbitrary keys, n <= 64 and k <= n.
func FuzzActiveSetMatchesReference(f *testing.F) {
	keys := goldenKeys()
	f.Add(keys[0][:], uint8(5), uint8(3))
	f.Add(keys[1][:], uint8(64), uint8(5))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, nb, kb uint8) {
		var key Key
		copy(key[:], raw)
		n := int(nb) % 65
		k := int(kb) % (n + 1)
		got, want := ActiveSet(key, n, k), referenceActiveSet(key, n, k)
		if !slices.Equal(got, want) {
			t.Fatalf("key %x (n,k)=(%d,%d): ActiveSet = %v, reference = %v", key, n, k, got, want)
		}
	})
}

// TestActiveSetAllocsFlatInN requires ActiveSet's allocation count to
// be independent of the pool size: one keyed MAC per call, not one per
// draw.
func TestActiveSetAllocsFlatInN(t *testing.T) {
	key := goldenKeys()[0]
	small := testing.AllocsPerRun(50, func() { ActiveSet(key, 5, 3) })
	large := testing.AllocsPerRun(50, func() { ActiveSet(key, 64, 5) })
	if small != large {
		t.Fatalf("ActiveSet allocates %v times at n=5 and %v at n=64", small, large)
	}
}
