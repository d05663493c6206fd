package core

import (
	"sort"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// byzRingSize bounds the adapter's capture ring: a byzantine node
// replays from recent control traffic it has seen, and "recent" is a
// hard cap — the adversary model gets no unbounded memory either.
const byzRingSize = 32

// byzFrame is one captured control frame: the message (copied, since
// packets are pooled) and where it was heading.
type byzFrame struct {
	m   Message
	dst netsim.NodeID
}

// ByzantineAdapter implements faults.Hooks.OnByzantine for a core
// deployment: it turns the fault plan's abstract misbehavior ticks
// into concrete hostile control frames. Byzantine nodes hold no key
// material — they can observe, store and re-emit frames (replay,
// amplify) and fabricate frames with garbage or spoofed fields (forge,
// mark-spoof), but they cannot mint valid per-epoch MACs. Whether
// their frames bite is therefore decided entirely by the receiver's
// authentication path.
type ByzantineAdapter struct {
	d *Defense
	// servers are the protected servers — the plausible targets a
	// forgery names to maximize damage.
	servers []netsim.NodeID
	// routers is the sorted deployed-router list; injection targets are
	// drawn from it (sorted so RNG draws map to the same routers in
	// every run).
	routers []netsim.NodeID

	ring    [byzRingSize]byzFrame
	ringLen int
	ringPos int

	// Injected counts frames actually put on the wire (amplification
	// counts each copy).
	Injected int64
}

// NewByzantineAdapter builds an adapter over a deployed defense.
// servers is the protected-server list (victim identities a forgery
// would plausibly claim).
func NewByzantineAdapter(d *Defense, servers []netsim.NodeID) *ByzantineAdapter {
	a := &ByzantineAdapter{d: d, servers: servers}
	for id := range d.routers {
		a.routers = append(a.routers, id)
	}
	sort.Slice(a.routers, func(i, j int) bool { return a.routers[i] < a.routers[j] })
	return a
}

// Tap installs passive capture on the given subverted nodes: every
// control frame they forward or receive lands in the replay ring.
// Call before the simulation starts.
func (a *ByzantineAdapter) Tap(nodes ...*netsim.Node) {
	for _, n := range nodes {
		n.AddHook(netsim.ForwardFunc(func(_ *netsim.Node, p *netsim.Packet, in, out *netsim.Port) bool {
			a.capture(p)
			return true
		}))
		prev := n.Handler
		n.Handler = func(p *netsim.Packet, in *netsim.Port) {
			a.capture(p)
			if prev != nil {
				prev(p, in)
			}
		}
	}
}

func (a *ByzantineAdapter) capture(p *netsim.Packet) {
	m, ok := p.Payload.(*Message)
	if !ok || p.Type != netsim.Control {
		return
	}
	a.ring[a.ringPos] = byzFrame{m: *m, dst: p.Dst}
	a.ringPos = (a.ringPos + 1) % byzRingSize
	if a.ringLen < byzRingSize {
		a.ringLen++
	}
}

// OnByzantine is the faults.Hooks callback: one misbehavior tick of
// one subverted node.
func (a *ByzantineAdapter) OnByzantine(node *netsim.Node, behavior faults.ByzantineBehavior, rng *des.RNG) {
	a.d.Sec.ByzantineInjections++
	a.d.rec(trace.ByzantineInjected, int(node.ID), -1, -1, behavior.String())
	switch behavior {
	case faults.ByzForge:
		a.inject(node, node.ID, a.pickRouter(rng), a.forge(rng))
	case faults.ByzMarkSpoof:
		// Spoof the claimed source: the frame pretends to come from a
		// protected server (the inter-AS analogue is a spoofed
		// edge-router mark). Hop-adjacency heuristics believe it; MACs
		// do not.
		m := a.forge(rng)
		a.inject(node, a.pickServer(rng), a.pickRouter(rng), m)
	case faults.ByzReplay:
		f, ok := a.pickFrame(rng)
		if !ok {
			a.inject(node, node.ID, a.pickRouter(rng), a.forge(rng))
			return
		}
		m := f.m
		a.inject(node, node.ID, f.dst, &m)
	case faults.ByzAmplify:
		// One observed frame, many copies: replay as a state-exhaustion
		// flood against several routers at once.
		for i := 0; i < 4; i++ {
			var m *Message
			if f, ok := a.pickFrame(rng); ok {
				c := f.m
				m = &c
			} else {
				m = a.forge(rng)
			}
			a.inject(node, node.ID, a.pickRouter(rng), m)
		}
	}
}

// forge fabricates a control message the way a key-less adversary
// would: plausible fields, hostile intent, garbage authenticator.
// Half the forgeries name a real protected server (to tear down or
// hijack genuine sessions), half a nonexistent one (to exhaust session
// tables).
func (a *ByzantineAdapter) forge(rng *des.RNG) *Message {
	m := &Message{
		Kind:  Request,
		Epoch: rng.Intn(32),
		Seq:   rng.Int63(),
		Lease: 1e6, // a forged session that sticks would pin state forever
	}
	if rng.Intn(2) == 0 {
		m.Kind = Cancel
	}
	if len(a.servers) > 0 && rng.Intn(2) == 0 {
		m.Server = des.Pick(rng, a.servers)
	} else {
		m.Server = netsim.NodeID(900000 + rng.Intn(1024))
	}
	tag := make([]byte, 32)
	for i := range tag {
		tag[i] = byte(rng.Intn(256))
	}
	m.Tag = tag
	return m
}

func (a *ByzantineAdapter) pickRouter(rng *des.RNG) netsim.NodeID {
	return des.Pick(rng, a.routers)
}

func (a *ByzantineAdapter) pickServer(rng *des.RNG) netsim.NodeID {
	if len(a.servers) == 0 {
		return netsim.NodeID(900000)
	}
	return des.Pick(rng, a.servers)
}

func (a *ByzantineAdapter) pickFrame(rng *des.RNG) (byzFrame, bool) {
	if a.ringLen == 0 {
		return byzFrame{}, false
	}
	return a.ring[rng.Intn(a.ringLen)], true
}

// inject puts a hostile control frame on the wire from the subverted
// node, with an arbitrary claimed source. It deliberately bypasses
// Defense.sendMsg so adversarial traffic never pollutes the defense's
// own MsgSent accounting.
func (a *ByzantineAdapter) inject(from *netsim.Node, src, dst netsim.NodeID, m *Message) {
	a.Injected++
	pp := from.NewPacket()
	*pp = netsim.Packet{
		Src:     src,
		TrueSrc: from.ID,
		Dst:     dst,
		Size:    CtrlPacketSize,
		Type:    netsim.Control,
		Payload: m,
	}
	from.Send(pp)
}
