package roaming

import (
	"slices"
	"testing"

	"repro/internal/hashchain"
	"repro/internal/netsim"
)

// freshSet derives an epoch's active set from the chain, bypassing the
// pool's memo.
func freshSet(t *testing.T, p *Pool, epoch int) []netsim.NodeID {
	t.Helper()
	key, err := p.Chain().Key(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return ActiveServers(key, p.Servers(), p.Config().K)
}

// TestActiveSetAtMatchesChain holds the memo to a fresh derivation for
// every epoch, on the deriving call and on the memoized one.
func TestActiveSetAtMatchesChain(t *testing.T) {
	_, _, p := testPool(t, cfg5of3())
	for pass := 0; pass < 2; pass++ {
		for e := 0; e < p.Config().Epochs; e++ {
			got, err := p.ActiveSetAt(e)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshSet(t, p, e); !slices.Equal(got, want) {
				t.Fatalf("pass %d epoch %d: ActiveSetAt = %v, chain gives %v", pass, e, got, want)
			}
		}
	}
	for _, e := range []int{-1, p.Config().Epochs} {
		if _, err := p.ActiveSetAt(e); err == nil {
			t.Errorf("epoch %d outside the chain accepted", e)
		}
	}
}

// TestSubscriptionMatchesDerive holds a subscription's answers to the
// client-side derivation from its held key, Derive(K_t, t, e), for
// every epoch up to the horizon, before and after a renewal.
func TestSubscriptionMatchesDerive(t *testing.T) {
	_, _, p := testPool(t, cfg5of3())
	sub, err := p.Issue(12)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for e := 0; e <= sub.Horizon(); e++ {
			key, err := hashchain.Derive(sub.key, sub.keyEpoch, e)
			if err != nil {
				t.Fatal(err)
			}
			want := ActiveServers(key, p.Servers(), p.Config().K)
			got, err := sub.ActiveServers(e)
			if err != nil {
				t.Fatalf("%s: epoch %d: %v", stage, e, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: epoch %d: subscription gives %v, its key derives %v", stage, e, got, want)
			}
		}
		if _, err := sub.ActiveServers(sub.Horizon() + 1); err == nil {
			t.Fatalf("%s: epoch past the horizon answered", stage)
		}
	}
	check("issued")
	k40, err := p.Chain().Key(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Renew(k40, 40); err != nil {
		t.Fatal(err)
	}
	check("renewed")
}

// TestNextHoneypotEpochMatchesScan holds the memoized look-ahead to a
// scan of fresh derivations, for every server and start epoch.
func TestNextHoneypotEpochMatchesScan(t *testing.T) {
	_, _, p := testPool(t, cfg5of3())
	epochs := p.Config().Epochs
	for pass := 0; pass < 2; pass++ {
		for _, s := range p.Servers() {
			for from := 0; from <= epochs; from++ {
				want := -1
				for e := from; e < epochs; e++ {
					if !slices.Contains(freshSet(t, p, e), s.ID) {
						want = e
						break
					}
				}
				if got := p.NextHoneypotEpoch(s.ID, from); got != want {
					t.Fatalf("pass %d server %d from %d: NextHoneypotEpoch = %d, scan gives %d", pass, s.ID, from, got, want)
				}
			}
		}
	}
}

// TestMemoReadsDoNotAllocate requires a derived epoch to be answered
// from the memo: no allocation from the pool or a subscription.
func TestMemoReadsDoNotAllocate(t *testing.T) {
	_, _, p := testPool(t, cfg5of3())
	sub, err := p.Issue(20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ActiveSetAt(7); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = p.ActiveSetAt(7) }); n != 0 {
		t.Errorf("Pool.ActiveSetAt on a derived epoch: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = sub.ActiveServers(7) }); n != 0 {
		t.Errorf("Subscription.ActiveServers on a derived epoch: %v allocs, want 0", n)
	}
}
