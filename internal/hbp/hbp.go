// Package hbp holds the honeypot back-propagation machinery shared by
// the two defense planes: the router-level plane (internal/core) and
// the AS-level plane (internal/asnet). Both planes run the same
// abstract protocol — honeypot sessions opened per epoch, propagated
// hop by hop toward the attack sources, torn down by cancel waves or
// safety leases, authenticated with per-epoch MAC keys, and bounded by
// state budgets with distance-ranked admission control — over
// different substrates (netsim router ports vs. AS adjacencies). This
// package is the single audited implementation of that shared core;
// the planes contribute only their substrate-specific halves (message
// transport, ingress identification, fan-out targets).
//
// See DESIGN.md, "Plane unification".
package hbp

import (
	"repro/internal/des"
)

// SessionCore is the per-session state both planes keep: the honeypot
// epoch the session was opened for, propagation accounting, the
// eviction-priority inputs and the safety-lease handle. Plane session
// types embed it and add their substrate keys (input-port counts on
// routers, ingress-AS sets on HSMs).
type SessionCore struct {
	// Epoch is the honeypot epoch the session serves (refreshed by
	// duplicate requests).
	Epoch int
	// SentUpstream counts propagations; zero at cancel time makes the
	// owner a progressive-scheme frontier.
	SentUpstream int
	// Dist is the routing distance to the protected server, fixed at
	// open time (-1 = unreachable/forged). The eviction priority:
	// closer to the victim survives.
	Dist int
	// Total counts observed honeypot-destined packets — the session's
	// evidence of a real attack.
	Total int
	// Expiry is the safety-lease event handle.
	Expiry des.Event
}

// Weaker orders two sessions for eviction on the shared criteria:
// farther from the victim is weaker (unreachable counts as infinitely
// far), then fewer observed packets. It reports tied=true when both
// criteria are equal; the caller breaks the tie on its substrate
// identity (server node ID, or (home AS, member)) to keep the order
// strict and total — a requirement for deterministic min-scans over
// session maps.
func Weaker(a, b *SessionCore) (weaker, tied bool) {
	da, db := a.Dist, b.Dist
	if da < 0 {
		da = 1 << 30
	}
	if db < 0 {
		db = 1 << 30
	}
	if da != db {
		return da > db, false
	}
	if a.Total != b.Total {
		return a.Total < b.Total, false
	}
	return false, true
}

// RearmLease re-arms the session's safety expiry: the previous lease
// (if any) is cancelled and, for a positive lifetime, a fresh expiry
// is scheduled. A non-positive lifetime disables expiry — the paper's
// idealized teardown-by-cancel-only model.
func (c *SessionCore) RearmLease(sim *des.Simulator, life float64, expire func()) {
	c.Expiry.Cancel()
	c.Expiry = des.Event{}
	if life > 0 {
		c.Expiry = sim.After(life, expire)
	}
}

// Drop cancels the session's lease; callers delete the session from
// their table around it.
func (c *SessionCore) Drop() {
	c.Expiry.Cancel()
}
