package netsim

import (
	"testing"

	"repro/internal/des"
)

// TestPoolStressClonesNeverAlias hammers the packet pool through many
// allocate/deliver/recycle cycles while a handler retains a clone of
// every arrival, and asserts the ownership contract the packetretain
// analyzer encodes statically:
//
//   - a Clone/ClonePacket copy never re-enters the pool as an alias —
//     retained clones stay live (freed is never set) and keep their
//     field values even after the original is recycled and reused;
//   - every retained clone is a distinct object;
//   - recycling the originals at their terminal point never trips the
//     always-on double-free panic.
func TestPoolStressClonesNeverAlias(t *testing.T) {
	sim := des.New()
	nw := New(sim)
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	nw.Connect(a, b, 1e9, 1e-4)
	nw.ComputeRoutes()

	const rounds = 2000
	clones := make([]*Packet, 0, rounds)
	b.Handler = func(p *Packet, in *Port) {
		clones = append(clones, nw.ClonePacket(p))
	}
	for i := 0; i < rounds; i++ {
		i := i
		sim.At(float64(i)*1e-3, func() {
			p := a.NewPacket()
			p.Src, p.TrueSrc, p.Dst = a.ID, a.ID, b.ID
			p.Size = 100
			p.Seq = int64(i + 1)
			p.Type = Data
			a.Send(p)
		})
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(clones) != rounds {
		t.Fatalf("delivered %d/%d packets", len(clones), rounds)
	}
	seen := make(map[*Packet]bool, rounds)
	for i, c := range clones {
		if c.freed {
			t.Fatalf("clone %d re-entered the pool: an owned copy was recycled", i)
		}
		if c.Seq != int64(i+1) || c.Src != a.ID || c.Size != 100 {
			t.Fatalf("clone %d corrupted after the original was recycled: %+v", i, c)
		}
		if seen[c] {
			t.Fatalf("clone %d aliases an earlier clone: pool handed one object out twice", i)
		}
		seen[c] = true
	}
	// A value copy, the other way to keep packet state, survives the
	// original's recycling too.
	p := nw.NewPacket()
	p.Seq = 42
	q := *p
	nw.freePacket(p)
	if q.freed || q.Seq != 42 {
		t.Fatalf("a value copy changed with the recycled original: %+v", q)
	}
	// And the recycled original is reusable without a double free.
	r := nw.NewPacket()
	if r.freed {
		t.Fatal("pool handed out a packet still marked freed")
	}
}
