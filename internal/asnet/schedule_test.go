package asnet

import (
	"testing"

	"repro/internal/hashchain"
)

// TestScheduleMemoMatchesChain holds the memoized HoneypotAt and
// NextHoneypotEpoch to fresh derivations from the chain, for every
// member of a pool.
func TestScheduleMemoMatchesChain(t *testing.T) {
	const n, k, epochs = 5, 2, 40
	chain := hashchain.MustGenerate([]byte("asnet-memo"), epochs)
	for member := 0; member < n; member++ {
		s, err := NewSchedule([]byte("asnet-memo"), n, k, member, 10, 0.2, epochs)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func(e int) bool {
			key, err := chain.Key(e)
			if err != nil {
				return false
			}
			for _, idx := range hashchain.ActiveSet(key, n, k) {
				if idx == member {
					return false
				}
			}
			return true
		}
		for e := -1; e <= epochs; e++ {
			if got, want := s.HoneypotAt(e), fresh(e); got != want {
				t.Fatalf("member %d epoch %d: HoneypotAt = %v, chain gives %v", member, e, got, want)
			}
		}
		for from := 0; from <= epochs; from++ {
			want := -1
			for e := from; e < epochs; e++ {
				if fresh(e) {
					want = e
					break
				}
			}
			if got := s.NextHoneypotEpoch(from); got != want {
				t.Fatalf("member %d from %d: NextHoneypotEpoch = %d, scan gives %d", member, from, got, want)
			}
		}
	}
}
