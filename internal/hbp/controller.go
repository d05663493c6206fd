package hbp

import (
	"cmp"
	"slices"

	"repro/internal/des"
)

// Plane is the substrate half of the victim-side controller: how
// control messages leave the victim and when its next honeypot window
// opens. Every send reports whether a message actually left — the AS
// plane skips non-deploying ASes, and a skipped send is neither
// counted nor treated as armed.
type Plane[ID ~int] interface {
	// Request asks the root of the session tree (the first-hop router,
	// the home HSM) to open a session for the epoch. reseed marks a
	// watchdog re-seed of a tree that was already requested.
	Request(epoch int, reseed bool) bool
	// Cancel tears the session tree down from its root.
	Cancel(epoch int) bool
	// DirectRequest pre-seeds a session at one intermediate.
	DirectRequest(to ID, epoch int) bool
	// DirectCancel closes a pre-seeded session at one intermediate.
	DirectCancel(to ID, epoch int) bool
	// NextWindow returns the victim's first honeypot epoch >= from and
	// the time its window opens; ok is false once the schedule is
	// exhausted.
	NextWindow(from int) (epoch int, opensAt float64, ok bool)
	// CaptureCount is the watchdog's progress measure.
	CaptureCount() int
}

// ControllerConfig carries the victim-side parameters: the fields the
// planes' Config types share under the same names (defaults already
// filled), plus the plane's timer prefix.
type ControllerConfig struct {
	ActivationThreshold int
	Progressive         bool
	Rho                 int
	Tau                 float64
	Watchdog            bool
	WatchdogInterval    float64
	// EventPrefix labels the controller's timers in des
	// instrumentation: "<prefix>-progressive-arm", "<prefix>-watchdog".
	EventPrefix string
}

// Controller is the victim-side algorithm of Sec. 5/6, shared by both
// planes: it triggers session setup when a honeypot window collects
// enough attack packets, tears the tree down at window end, re-seeds a
// stalled tree, and — in progressive mode — maintains the intermediate
// list with the paper's two retention rules (the miss rule and the ρ
// consecutive-report rule), arming each entry t_A + τ before the next
// honeypot window. Plane server types embed it.
//
// The order of event-heap insertions is fingerprint-relevant and
// fixed: at open, arm the watchdog, then sweep; at close, disarm, root
// cancel, direct cancels in ascending ID order; in a stalled tick,
// root request, direct requests in ascending ID order, then re-arm.
type Controller[ID ~int] struct {
	cfg     ControllerConfig
	sim     *des.Simulator
	plane   Plane[ID]
	armName string

	windowOpen bool
	epoch      int
	hpCount    int
	requested  bool

	// intermediates is kept in ascending ID order: every sweep and
	// fan-out walks it front to back, so timer cancellations and message
	// sequence numbers are reproducible.
	intermediates []*intermediate[ID]
	wd            Watchdog

	// Stats
	RequestsSent       int64
	CancelsSent        int64
	DirectRequestsSent int64
	ReportsReceived    int64
	Rule1Removals      int64
	RhoRemovals        int64
	WatchdogReseeds    int64
}

// intermediate is one entry of the progressive scheme's intermediate
// list.
type intermediate[ID ~int] struct {
	id ID
	// tdist is the measured one-way time distance t_A from the
	// intermediate to the victim.
	tdist float64
	// consecutive counts honeypot epochs with a report; reaching ρ
	// removes the entry.
	consecutive int
	// armedEpoch is the last honeypot epoch a direct request went out
	// for, reportedEpoch the last one the intermediate reported for
	// (-1 if never).
	armedEpoch, reportedEpoch int
	armEvent                  des.Event
}

// NewController returns a controller with no window open.
func NewController[ID ~int](sim *des.Simulator, plane Plane[ID], cfg ControllerConfig) Controller[ID] {
	return Controller[ID]{
		cfg:     cfg,
		sim:     sim,
		plane:   plane,
		armName: cfg.EventPrefix + "-progressive-arm",
		epoch:   -1,
		wd:      Watchdog{Interval: cfg.WatchdogInterval, EventName: cfg.EventPrefix + "-watchdog"},
	}
}

// Intermediates returns the current intermediate-list size.
func (c *Controller[ID]) Intermediates() int { return len(c.intermediates) }

// Epoch returns the epoch of the most recently opened window (-1
// before the first).
func (c *Controller[ID]) Epoch() int { return c.epoch }

// find returns the list position of id, or where it would be inserted.
func (c *Controller[ID]) find(id ID) (int, bool) {
	return slices.BinarySearchFunc(c.intermediates, id, func(e *intermediate[ID], id ID) int { return cmp.Compare(e.id, id) })
}

// OpenWindow starts a honeypot window: packets arriving from now on
// count toward the activation threshold.
func (c *Controller[ID]) OpenWindow(epoch int) {
	c.windowOpen = true
	c.epoch = epoch
	c.hpCount = 0
	c.requested = false
	if c.cfg.Watchdog {
		c.wd.Arm(c.sim, 0, c.plane.CaptureCount(), c.watchdogTick)
	}
	// Rule 1: an entry armed for an earlier epoch that never reported
	// back has propagated upstream (or its report was lost).
	c.intermediates = slices.DeleteFunc(c.intermediates, func(e *intermediate[ID]) bool {
		stale := e.armedEpoch >= 0 && e.armedEpoch < epoch && e.reportedEpoch < e.armedEpoch
		if stale {
			c.sim.Cancel(e.armEvent)
			c.Rule1Removals++
		}
		return stale
	})
}

// CloseWindow ends the honeypot window for the epoch, tearing down the
// session tree it seeded and the pre-seeded sessions of intermediates
// armed for it (which then emit their frontier reports).
func (c *Controller[ID]) CloseWindow(epoch int) {
	c.windowOpen = false
	c.wd.Disarm(c.sim)
	if c.requested && c.plane.Cancel(epoch) {
		c.CancelsSent++
	}
	for _, e := range c.intermediates {
		if e.armedEpoch == epoch && c.plane.DirectCancel(e.id, epoch) {
			c.CancelsSent++
		}
	}
}

// HoneypotPacket counts one attack packet received by the victim; the
// packet that reaches the activation threshold requests the tree.
func (c *Controller[ID]) HoneypotPacket() {
	if !c.windowOpen {
		return
	}
	c.hpCount++
	if c.hpCount >= c.cfg.ActivationThreshold && !c.requested && c.plane.Request(c.epoch, false) {
		c.requested = true
		c.RequestsSent++
	}
}

// Report processes a progressive frontier report (Sec. 6) sent by
// origin at sentAt for the epoch.
func (c *Controller[ID]) Report(origin ID, epoch int, sentAt float64) {
	if !c.cfg.Progressive {
		return
	}
	c.ReportsReceived++
	i, ok := c.find(origin)
	if !ok {
		c.intermediates = slices.Insert(c.intermediates, i, &intermediate[ID]{id: origin, armedEpoch: -1, reportedEpoch: -1})
	}
	e := c.intermediates[i]
	if epoch > e.reportedEpoch {
		e.consecutive++
		e.reportedEpoch = epoch
	}
	e.tdist = max(c.sim.Now()-sentAt, 0)
	// Rule 2 (ρ): an intermediate that keeps reporting without
	// progress is dropped to bound the list.
	if e.consecutive >= c.cfg.Rho {
		c.sim.Cancel(e.armEvent)
		c.intermediates = slices.Delete(c.intermediates, i, i+1)
		c.RhoRemovals++
		return
	}
	c.scheduleArm(e, epoch)
}

// scheduleArm plans a direct request to the intermediate so that its
// session is live t_A + τ before the victim's next honeypot window
// opens (Sec. 6).
func (c *Controller[ID]) scheduleArm(e *intermediate[ID], afterEpoch int) {
	if e.armEvent.Pending() {
		return
	}
	next, opensAt, ok := c.plane.NextWindow(afterEpoch + 1)
	if !ok {
		return
	}
	at := max(opensAt-e.tdist-c.cfg.Tau, c.sim.Now())
	e.armEvent = c.sim.AtNamed(at, c.armName, func() {
		if c.plane.DirectRequest(e.id, next) {
			c.DirectRequestsSent++
			e.armedEpoch = next
		}
	})
}

// watchdogTick checks once per WatchdogInterval whether
// back-propagation has stalled: the honeypot keeps drawing attack
// packets (so attackers are still out there) yet no new capture landed
// since the last check — budget pressure or a fault evicted a session
// mid-tree. The cure is to re-seed: a fresh request at the root plus
// fresh direct requests to every intermediate already armed for this
// epoch, rebuilding the evicted parts of the session tree.
func (c *Controller[ID]) watchdogTick() {
	if !c.windowOpen {
		return
	}
	captures := c.plane.CaptureCount()
	if c.wd.Stalled(c.requested, c.hpCount, captures) {
		c.WatchdogReseeds++
		if c.plane.Request(c.epoch, true) {
			c.RequestsSent++
		}
		for _, e := range c.intermediates {
			if e.armedEpoch == c.epoch && c.plane.DirectRequest(e.id, c.epoch) {
				c.DirectRequestsSent++
			}
		}
	}
	c.wd.Observe(c.hpCount, captures)
	c.wd.Rearm(c.sim, c.watchdogTick)
}
