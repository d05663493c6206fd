// Package stackpi implements a StackPi-style deterministic
// packet-marking filter (Yaar et al.), the victim-side mitigation the
// paper compares against in Sec. 2: every router pushes a few bits
// derived from its identity onto a fixed-width mark field carried by
// each packet, so packets from the same origin arrive with the same
// path fingerprint; the victim learns the fingerprints of attack
// packets and drops future packets carrying them.
//
// The paper's critique — reproduced by this package's experiment in
// internal/experiments — is that with many dispersed attackers the
// mark space saturates: legitimate paths collide with attack paths
// and the filter's false-positive rate grows, unlike HBP whose
// honeypot signature stays exact.
package stackpi

import (
	"hash/fnv"

	"repro/internal/netsim"
)

// MarkBits is the width of the mark field (StackPi uses the 16-bit
// IP ID field).
const MarkBits = 16

// BitsPerHop is how many bits each router pushes (StackPi's default
// scheme pushes 2).
const BitsPerHop = 2

// Marker installs StackPi marking on a set of routers: a forwarding
// hook that, for every data packet, shifts the packet's mark left by
// BitsPerHop and ORs in bits derived from the link the packet arrived
// on (last-hop marking, per StackPi).
type Marker struct{}

// hopBits derives the per-hop mark bits from the upstream node and
// this router (StackPi hashes the adjacent routers' identities).
func hopBits(router, upstream netsim.NodeID) int {
	h := fnv.New32a()
	var buf [8]byte
	buf[0] = byte(router)
	buf[1] = byte(router >> 8)
	buf[2] = byte(router >> 16)
	buf[4] = byte(upstream)
	buf[5] = byte(upstream >> 8)
	buf[6] = byte(upstream >> 16)
	h.Write(buf[:])
	return int(h.Sum32()) & (1<<BitsPerHop - 1)
}

// Deploy installs the marking hook on every given router. End hosts
// never mark (their first-hop router pushes the first bits).
func (m *Marker) Deploy(routers []*netsim.Node) {
	for _, r := range routers {
		r := r
		r.AddHook(netsim.ForwardFunc(func(n *netsim.Node, p *netsim.Packet, in, out *netsim.Port) bool {
			if p.Type != netsim.Data || in == nil {
				return true
			}
			up := in.Peer().Node().ID
			p.Mark = ((p.Mark << BitsPerHop) | hopBits(r.ID, up)) & (1<<MarkBits - 1)
			return true
		}))
	}
}

// Filter is the victim-side StackPi filter: it learns the marks of
// identified attack packets and drops arrivals carrying a learned
// mark. The filter sees only what a deployed one would — the mark —
// and keeps no ground-truth accuracy state; experiments measure FP/FN
// rates with metrics.FilterAccuracy.
type Filter struct {
	attackMarks map[int]bool

	// Dropped counts filtered packets, Passed packets allowed through.
	Dropped int64
	Passed  int64
}

// NewFilter returns an empty filter.
func NewFilter() *Filter {
	return &Filter{attackMarks: map[int]bool{}}
}

// Learn records a mark as belonging to attack traffic. In deployment
// the training set comes from an attack-identification oracle; the
// experiments use the roaming-honeypot signature (packets received
// during honeypot windows), which is exactly the synergy the paper
// suggests.
func (f *Filter) Learn(mark int) { f.attackMarks[mark] = true }

// LearnedMarks returns how many distinct marks are blacklisted.
func (f *Filter) LearnedMarks() int { return len(f.attackMarks) }

// MarkSpaceSaturation returns the fraction of the 2^MarkBits mark
// space that is blacklisted — the collision-driver of the accuracy
// collapse.
func (f *Filter) MarkSpaceSaturation() float64 {
	return float64(len(f.attackMarks)) / float64(int(1)<<MarkBits)
}

// Check classifies an arriving packet from its mark alone:
// false = drop.
func (f *Filter) Check(p *netsim.Packet) bool {
	if f.attackMarks[p.Mark] {
		f.Dropped++
		return false
	}
	f.Passed++
	return true
}
