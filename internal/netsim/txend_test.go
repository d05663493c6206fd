package netsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
)

// hopCoverage counts the situations the one-event path must get right,
// so the differential test can show it met each of them.
type hopCoverage struct {
	atEndBefore, atEndAfter int // a send at exactly the previous transmission's end, below / above its key
	downMid, flapMid        int // a link failed mid-transmission; failed and restored within one
	crashQueued             int // a node crashed with packets queued
	ctrlOvertakes           int // a control packet forwarded to a port with data queued
}

// hopModel builds a seeded random network — routers on a tree plus a
// chord, hosts on access links — and runs traffic over it with link
// failures and flaps, a node crash, Loss hooks, RED ports and short
// queues. It returns one record per packet event: every hop a packet
// makes (time, node, ports, output queue length, the node's drop
// counters) and every delivery, then the final counters.
func hopModel(t *testing.T, seed int64, cov *hopCoverage) []string {
	t.Helper()
	rng := des.NewRNG(seed)
	sim := des.New()
	nw := New(sim)
	// Bandwidths and delays are arbitrary, so no two events coincide by
	// accident: the one-event path draws an arrival's tie-break seq at
	// the start of its transmission, not at its end, so an arrival that
	// coincides exactly with an event scheduled during that
	// transmission may be ordered differently (DESIGN.md, "Performance
	// & memory model"). The coincidences the path must order exactly —
	// a send at the very end of a transmission — the sources make on
	// purpose.
	sizes := []int{100, 300, 700, 1100}
	link := func(a, b *Node) *Link {
		return nw.Connect(a, b, 5e4+2e5*rng.Float64(), 0.001+0.02*rng.Float64())
	}
	routers := make([]*Node, 4+rng.Intn(4))
	for i := range routers {
		routers[i] = nw.AddNode(fmt.Sprintf("r%d", i))
		if i > 0 {
			link(routers[i], routers[rng.Intn(i)])
		}
	}
	if a, b := routers[0], routers[len(routers)-1]; a.PortTo(b) == nil {
		link(a, b)
	}
	hosts := make([]*Node, 6+rng.Intn(5))
	for i := range hosts {
		hosts[i] = nw.AddNode(fmt.Sprintf("h%d", i))
		link(hosts[i], routers[rng.Intn(len(routers))])
	}
	nw.ComputeRoutes()

	var recs []string
	record := func(n *Node, p *Packet, in, out *Port) {
		inIdx, outIdx, q := -1, -1, -1
		if in != nil {
			inIdx = in.Index()
		}
		if out != nil {
			outIdx, q = out.Index(), out.QueueLen()
			if p.Type == Control && out.q.data.n > 0 {
				cov.ctrlOvertakes++
			}
		}
		recs = append(recs, fmt.Sprintf("%.17g n%d in%d out%d p%d q%d drops%v",
			sim.Now(), n.ID, inIdx, outIdx, p.Seq, q, n.Stats.Drops))
	}
	for _, n := range nw.Nodes() {
		n := n
		n.AddHook(ForwardFunc(func(_ *Node, p *Packet, in, out *Port) bool {
			record(n, p, in, out)
			return true
		}))
		n.Handler = func(p *Packet, in *Port) { record(n, p, in, nil) }
	}

	for i, l := range nw.Links() {
		switch rng.Intn(6) {
		case 0:
			lr := des.NewRNG(seed*100 + int64(i))
			l.Loss = func(*Packet, *Port) bool { return lr.Float64() < 0.1 }
		case 1:
			l.A().EnableRED(REDParams{MinTh: 1, MaxTh: 4, MaxP: 0.3, Wq: 0.2}, seed+int64(i))
		case 2:
			l.B().SetQueueLimit(3)
		}
	}

	// Sources: each host sends to random hosts, mostly back to back —
	// the next send at exactly the end of the access transmission, its
	// event scheduled before or after that transmission's key.
	var seq int64
	for _, h := range hosts {
		h := h
		var tick func()
		tick = func() {
			if sim.Now() > 2 {
				return
			}
			p := h.NewPacket()
			seq++
			*p = Packet{Src: h.ID, TrueSrc: h.ID, Dst: hosts[rng.Intn(len(hosts))].ID, Size: sizes[rng.Intn(len(sizes))], Type: Data, Seq: seq}
			if rng.Intn(8) == 0 {
				p.Type = Control
			}
			gap := h.ports[0].link.TxTime(p.Size)
			if rng.Intn(4) == 0 {
				gap *= float64(1 + rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				sim.After(gap, tick)
				h.Send(p)
			} else {
				h.Send(p)
				sim.After(gap, tick)
			}
		}
		sim.At(0.25*rng.Float64(), tick)
	}
	// Count sends that land on the end of the access transmission in
	// progress, by key order. The arrival was scheduled at end + delay,
	// so now is the end when now + delay gives the same time.
	for _, h := range hosts {
		pt := h.ports[0]
		h.AddHook(ForwardFunc(func(_ *Node, _ *Packet, in, _ *Port) bool {
			if in == nil && !pt.busy && pt.arrival.Pending() && sim.Now()+pt.link.Delay == pt.arrival.Time() {
				if sim.Passed(pt.txEnd) {
					cov.atEndAfter++
				} else {
					cov.atEndBefore++
				}
			}
			return true
		}))
	}

	// Failures: outages longer than a packet and flaps shorter than the
	// shortest serialization (100 B at 250 kb/s, 3.2 ms), and one
	// router crash.
	for i := 0; i < 6; i++ {
		l := nw.Links()[rng.Intn(len(nw.Links()))]
		at := 0.2 + 1.5*rng.Float64()
		d := 0.3 * rng.Float64()
		if i%2 == 0 {
			d = rng.Float64() / 1024
		}
		var held [2]des.Reservation
		sim.At(at, func() {
			for j, pt := range [2]*Port{l.a, l.b} {
				held[j] = pt.txEnd
				if !pt.busy && !sim.Passed(pt.txEnd) {
					cov.downMid++
				}
			}
			l.SetDown(true)
		})
		sim.At(at+d, func() {
			for j, pt := range [2]*Port{l.a, l.b} {
				if !pt.busy && pt.txEnd == held[j] && !sim.Passed(pt.txEnd) {
					cov.flapMid++
				}
			}
			l.SetDown(false)
		})
	}
	r := routers[rng.Intn(len(routers))]
	crashAt := 0.5 + rng.Float64()
	sim.At(crashAt, func() {
		for _, pt := range r.ports {
			if pt.QueueLen() > 0 {
				cov.crashQueued++
				break
			}
		}
		r.SetDown(true)
	})
	sim.At(crashAt+0.2, func() { r.SetDown(false) })

	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.Nodes() {
		recs = append(recs, fmt.Sprintf("final n%d %+v", n.ID, n.Stats))
	}
	for i, l := range nw.Links() {
		recs = append(recs, fmt.Sprintf("final l%d failure%d noise%d red%d/%d", i, l.LostToFailure, l.LostToNoise, l.A().REDDrops(), l.B().REDDrops()))
	}
	nw.Drain()
	if out := nw.PacketsOutstanding(); out != 0 {
		t.Fatalf("seed %d: %d packets outstanding after drain", seed, out)
	}
	recs = append(recs, fmt.Sprintf("events %d", sim.Fired()))
	return recs
}

// TestOneEventHopsMatchTwoEventModel holds the one-event hop to the
// store-and-forward model it replaces: over generated networks with
// control traffic, back-to-back sends, link failures and flaps inside
// transmissions, Loss hooks, RED ports and a router crash, every
// packet event — hop, delivery, drop counters — happens at the same
// time, in the same order, with the same queue lengths, as when every
// transmission schedules its end event.
func TestOneEventHopsMatchTwoEventModel(t *testing.T) {
	var cov hopCoverage
	for seed := int64(1); seed <= 24; seed++ {
		forceTxDone = true
		want := hopModel(t, seed, &hopCoverage{})
		forceTxDone = false
		got := hopModel(t, seed, &cov)
		if len(want) < 200 {
			t.Fatalf("seed %d: only %d records", seed, len(want))
		}
		wantEvents, gotEvents := want[len(want)-1], got[len(got)-1]
		want, got = want[:len(want)-1], got[:len(got)-1]
		if a, b := strings.Join(want, "\n"), strings.Join(got, "\n"); a != b {
			for i := range want {
				if i >= len(got) || want[i] != got[i] {
					t.Fatalf("seed %d: record %d differs:\ntwo-event: %s\none-event: %v", seed, i, want[i], got[min(i, len(got)-1)])
				}
			}
			t.Fatalf("seed %d: one-event run has %d records, two-event %d", seed, len(got), len(want))
		}
		if gotEvents >= wantEvents {
			t.Fatalf("seed %d: one-event run fired %s, two-event %s", seed, gotEvents, wantEvents)
		}
	}
	t.Logf("coverage %+v", cov)
	if cov.atEndBefore == 0 || cov.atEndAfter == 0 || cov.downMid == 0 || cov.flapMid == 0 || cov.crashQueued == 0 || cov.ctrlOvertakes == 0 {
		t.Fatalf("a case went unexercised: %+v", cov)
	}
}
