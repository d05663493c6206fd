package faults

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
)

// ByzantineBehavior enumerates the ways a subverted node can attack
// the defense itself. A byzantine node holds no key material — the
// threat model is a compromised router or a host on an infrastructure
// link, not a compromised key store — so authentication decides
// whether these behaviors bite (see DESIGN.md, "Threat model &
// graceful degradation").
type ByzantineBehavior int

const (
	// ByzForge fabricates control messages (requests, cancels) with
	// garbage authenticators, for real and for nonexistent servers.
	ByzForge ByzantineBehavior = iota
	// ByzReplay re-injects previously observed control frames
	// verbatim, valid tags included.
	ByzReplay
	// ByzAmplify re-injects an observed frame many times to many
	// targets — replay used as a state-exhaustion flood.
	ByzAmplify
	// ByzMarkSpoof injects forged control frames with a spoofed source
	// (claiming to be the protected server or an edge router), the
	// core-scheme analogue of spoofing edge-router marks.
	ByzMarkSpoof
	byzBehaviorCount
)

func (b ByzantineBehavior) String() string {
	switch b {
	case ByzForge:
		return "forge"
	case ByzReplay:
		return "replay"
	case ByzAmplify:
		return "amplify"
	case ByzMarkSpoof:
		return "mark-spoof"
	default:
		return fmt.Sprintf("ByzantineBehavior(%d)", int(b))
	}
}

// AllByzantineBehaviors lists every behavior, for plans that want the
// full repertoire.
func AllByzantineBehaviors() []ByzantineBehavior {
	out := make([]ByzantineBehavior, byzBehaviorCount)
	for i := range out {
		out[i] = ByzantineBehavior(i)
	}
	return out
}

// ByzantineNode is one subverted node's misbehavior schedule: between
// Start and End it injects Rate hostile frames per second, cycling
// through Behaviors under the plan's RNG.
type ByzantineNode struct {
	// Node is the subverted node.
	Node netsim.NodeID
	// Behaviors is the repertoire; each injection draws one uniformly.
	Behaviors []ByzantineBehavior
	// Rate is injections per second.
	Rate float64
	// Start and End bound the misbehavior window in simulation seconds.
	Start, End float64
}

// validateByzantine extends Plan.Validate.
func (p *Plan) validateByzantine(nw *netsim.Network) error {
	for _, b := range p.Byzantine {
		if nw.Node(b.Node) == nil {
			return fmt.Errorf("faults: byzantine node %d not in network", b.Node)
		}
		if len(b.Behaviors) == 0 {
			return fmt.Errorf("faults: byzantine node %d has no behaviors", b.Node)
		}
		for _, bb := range b.Behaviors {
			if bb < 0 || bb >= byzBehaviorCount {
				return fmt.Errorf("faults: byzantine node %d has unknown behavior %d", b.Node, int(bb))
			}
		}
		if b.Rate <= 0 {
			return fmt.Errorf("faults: byzantine node %d has non-positive rate %v", b.Node, b.Rate)
		}
		if b.End <= b.Start || b.Start < 0 {
			return fmt.Errorf("faults: byzantine node %d has bad window [%v, %v)", b.Node, b.Start, b.End)
		}
	}
	return nil
}

// applyByzantine schedules every misbehaving node's injection ticks.
// Tick times are a pure function of the schedule (Start + k/Rate) and
// behavior draws come from a per-node split of the plan RNG, so runs
// are bit-for-bit reproducible.
func (inj *Injector) applyByzantine(sim *des.Simulator, root *des.RNG, hooks Hooks) {
	for i, b := range inj.plan.Byzantine {
		b := b
		node := inj.nw.Node(b.Node)
		rng := root.Split(int64(i) + 1000)
		interval := 1 / b.Rate
		n := int((b.End - b.Start) / interval)
		for k := 0; k <= n; k++ {
			at := b.Start + float64(k)*interval
			if at >= b.End {
				break
			}
			sim.At(at, func() {
				if node.Down() {
					return
				}
				inj.ByzantineInjected++
				behavior := b.Behaviors[rng.Intn(len(b.Behaviors))]
				if hooks.OnByzantine != nil {
					hooks.OnByzantine(node, behavior, rng)
				}
			})
		}
	}
}

// RandomByzantine subverts n distinct nodes with the full behavior
// repertoire, each misbehaving at rate injections/second over
// [start, end). The result is sorted by node ID and is a pure function
// of the seed.
func RandomByzantine(seed int64, nodes []netsim.NodeID, n int, rate, start, end float64) []ByzantineNode {
	if n > len(nodes) {
		n = len(nodes)
	}
	if n <= 0 || end <= start || rate <= 0 {
		return nil
	}
	rng := des.NewRNG(seed)
	picked := des.Sample(rng, nodes, n)
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	out := make([]ByzantineNode, n)
	for i, id := range picked {
		out[i] = ByzantineNode{
			Node:      id,
			Behaviors: AllByzantineBehaviors(),
			Rate:      rate,
			Start:     start,
			End:       end,
		}
	}
	return out
}
