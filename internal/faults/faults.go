// Package faults is a deterministic fault-injection subsystem for
// netsim networks. A Plan describes per-link random packet loss
// (independent Bernoulli and Gilbert–Elliott bursty), scheduled link
// down windows, and router crash/restart events; Apply installs it
// into a network through the DES event loop, so a run with a fixed
// scenario seed and a fixed plan is bit-for-bit reproducible.
//
// The point of the subsystem is honesty about the paper's operating
// conditions: honeypot back-propagation runs *during* a DDoS flood,
// when control packets compete with attack traffic and routers are
// stressed. The experiments in internal/experiments use these plans to
// show which control-plane designs survive that regime (see DESIGN.md,
// "Failure model").
package faults

import (
	"fmt"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
)

// LossSpec is independent per-packet Bernoulli loss applied to every
// link.
type LossSpec struct {
	// Prob is the per-packet loss probability in [0, 1).
	Prob float64
	// CtrlOnly restricts the loss to control packets. The experiments
	// use it to model the regime the paper ignores — the data plane is
	// already saturated, and what matters is whether *control* messages
	// get through — without also perturbing the attack load itself.
	CtrlOnly bool
}

// GilbertElliott is the classic two-state bursty loss model: a good
// state with rare loss and a bad state with heavy loss, with
// per-packet transition probabilities. Each link direction carries its
// own state machine.
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-packet probability of leaving the bad state.
	PBadGood float64
	// LossGood is the loss probability while in the good state.
	LossGood float64
	// LossBad is the loss probability while in the bad state.
	LossBad float64
	// CtrlOnly restricts the whole model — state transitions and
	// losses — to control packets: the chain then runs over the
	// control-packet sequence, so a bad period wipes *consecutive
	// control messages* (a control-plane brownout) regardless of how
	// much data traffic interleaves.
	CtrlOnly bool
}

// DownWindow schedules one link outage.
type DownWindow struct {
	// Link indexes into Network.Links() (creation order, which is
	// deterministic for a fixed topology seed).
	Link int
	// Start and End bound the outage in simulation seconds.
	Start, End float64
}

// Crash schedules one router crash (and optional restart).
type Crash struct {
	// Node is the router to crash.
	Node netsim.NodeID
	// At is the crash time in simulation seconds.
	At float64
	// RestartAfter is the downtime; <= 0 means the router never comes
	// back.
	RestartAfter float64
}

// Plan is a complete fault scenario. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every random draw the plan makes. Two runs with the
	// same scenario and the same plan produce identical packet fates.
	Seed int64
	// Loss is network-wide Bernoulli packet loss.
	Loss LossSpec
	// Burst, when non-nil, layers Gilbert–Elliott bursty loss on every
	// link.
	Burst *GilbertElliott
	// Windows are scheduled link outages.
	Windows []DownWindow
	// Crashes are scheduled router crash/restart events.
	Crashes []Crash
	// Byzantine are subverted nodes that attack the defense itself
	// (forge, replay, amplify, mark-spoof).
	Byzantine []ByzantineNode
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	return p.Loss.Prob > 0 || p.Burst != nil || len(p.Windows) > 0 || len(p.Crashes) > 0 || len(p.Byzantine) > 0
}

// Validate reports plan errors against a network.
func (p *Plan) Validate(nw *netsim.Network) error {
	if p.Loss.Prob < 0 || p.Loss.Prob >= 1 {
		return fmt.Errorf("faults: loss probability %v out of [0,1)", p.Loss.Prob)
	}
	for _, w := range p.Windows {
		if w.Link < 0 || w.Link >= len(nw.Links()) {
			return fmt.Errorf("faults: window link %d out of range (%d links)", w.Link, len(nw.Links()))
		}
		if w.End <= w.Start || w.Start < 0 {
			return fmt.Errorf("faults: bad window [%v, %v)", w.Start, w.End)
		}
	}
	for _, c := range p.Crashes {
		if nw.Node(c.Node) == nil {
			return fmt.Errorf("faults: crash node %d not in network", c.Node)
		}
		if c.At < 0 {
			return fmt.Errorf("faults: crash at negative time %v", c.At)
		}
	}
	return p.validateByzantine(nw)
}

// Hooks let the owning subsystem clean up protocol state around
// crashes. OnCrash runs after the node is taken down (netsim already
// flushed its queues); OnRestart runs after it is brought back. Either
// may be nil. core.Defense.CrashRouter / RestartRouter are the
// intended targets.
type Hooks struct {
	OnCrash   func(*netsim.Node)
	OnRestart func(*netsim.Node)
	// OnByzantine runs once per scheduled injection tick of a
	// misbehaving node: the owning subsystem crafts and injects the
	// hostile frame (it knows the message format; this package only
	// knows the schedule). The RNG is the node's dedicated deterministic
	// stream — draws made here never perturb other fault draws.
	// core.NewByzantineAdapter is the intended target.
	OnByzantine func(node *netsim.Node, behavior ByzantineBehavior, rng *des.RNG)
}

// Injector is an applied fault plan.
type Injector struct {
	plan Plan
	nw   *netsim.Network

	// CrashesInjected / RestartsInjected count executed events.
	CrashesInjected  int64
	RestartsInjected int64
	// ByzantineInjected counts executed misbehavior ticks.
	ByzantineInjected int64
}

// geState is one direction's Gilbert–Elliott state.
type geState struct{ bad bool }

// Apply installs the plan into the network: loss hooks on every link,
// outage windows, and crash/restart events, all scheduled through sim.
// It panics on an invalid plan (fault plans are test/experiment
// fixtures; a bad one is a programming error).
func Apply(sim *des.Simulator, nw *netsim.Network, plan Plan, hooks Hooks) *Injector {
	if err := plan.Validate(nw); err != nil {
		panic(err)
	}
	inj := &Injector{plan: plan, nw: nw}
	root := des.NewRNG(plan.Seed)

	if plan.Loss.Prob > 0 || plan.Burst != nil {
		for i, l := range nw.Links() {
			l := l
			// One independent stream per link: per-link packet order is
			// fixed by the DES, so draws are reproducible.
			rng := root.Split(int64(i) + 1)
			states := map[*netsim.Port]*geState{l.A(): {}, l.B(): {}}
			loss, burst := plan.Loss, plan.Burst
			l.Loss = func(p *netsim.Packet, from *netsim.Port) bool {
				drop := false
				if loss.Prob > 0 && (!loss.CtrlOnly || p.Type == netsim.Control) {
					if rng.Float64() < loss.Prob {
						drop = true
					}
				}
				if burst != nil && (!burst.CtrlOnly || p.Type == netsim.Control) {
					st := states[from]
					if st.bad {
						if rng.Float64() < burst.PBadGood {
							st.bad = false
						}
					} else if rng.Float64() < burst.PGoodBad {
						st.bad = true
					}
					pl := burst.LossGood
					if st.bad {
						pl = burst.LossBad
					}
					if pl > 0 && rng.Float64() < pl {
						drop = true
					}
				}
				return drop
			}
		}
	}

	for _, w := range plan.Windows {
		link := nw.Links()[w.Link]
		sim.At(w.Start, func() { link.SetDown(true) })
		sim.At(w.End, func() { link.SetDown(false) })
	}

	for _, c := range plan.Crashes {
		c := c
		node := nw.Node(c.Node)
		sim.At(c.At, func() {
			inj.CrashesInjected++
			node.SetDown(true)
			if hooks.OnCrash != nil {
				hooks.OnCrash(node)
			}
		})
		if c.RestartAfter > 0 {
			sim.At(c.At+c.RestartAfter, func() {
				inj.RestartsInjected++
				node.SetDown(false)
				if hooks.OnRestart != nil {
					hooks.OnRestart(node)
				}
			})
		}
	}
	inj.applyByzantine(sim, root, hooks)
	return inj
}

// LostToNoise sums random-loss destructions over every link.
func (inj *Injector) LostToNoise() int64 {
	var t int64
	for _, l := range inj.nw.Links() {
		t += l.LostToNoise
	}
	return t
}

// LostToFailure sums outage destructions over every link.
func (inj *Injector) LostToFailure() int64 {
	var t int64
	for _, l := range inj.nw.Links() {
		t += l.LostToFailure
	}
	return t
}

// RandomCrashes draws n crash events on distinct routers, uniformly
// placed in [start, end), each restarting after restartAfter seconds.
// The result is sorted by time and is a pure function of the seed.
func RandomCrashes(seed int64, routers []netsim.NodeID, n int, start, end, restartAfter float64) []Crash {
	if n > len(routers) {
		n = len(routers)
	}
	if n <= 0 || end <= start {
		return nil
	}
	rng := des.NewRNG(seed)
	picked := des.Sample(rng, routers, n)
	out := make([]Crash, n)
	for i, id := range picked {
		out[i] = Crash{Node: id, At: rng.Uniform(start, end), RestartAfter: restartAfter}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}
