package hbp

import (
	"repro/internal/des"
)

// Watchdog is the server-side stall detector both planes run: while a
// honeypot window keeps collecting attack packets but captures stop
// advancing (budget pressure or a fault evicted sessions mid-tree),
// the session tree must be re-seeded. The watchdog holds the progress
// snapshot from the last check and the tick event; the plane supplies
// the re-seed action.
//
// The call protocol mirrors the hand-rolled originals exactly, because
// the order of event-heap insertions is fingerprint-relevant:
// on window open, Arm; on window close, Disarm; in the tick handler,
// query Stalled, perform the re-seed, then Observe+Rearm.
type Watchdog struct {
	// Interval is the stall-check period in seconds.
	Interval float64

	lastHp, lastCaptures int
	event                des.Event
}

// Arm snapshots progress at window open and schedules the first tick.
func (w *Watchdog) Arm(sim *des.Simulator, hp, captures int, tick func()) {
	w.lastHp, w.lastCaptures = hp, captures
	w.event = sim.After(w.Interval, tick)
}

// Disarm cancels the pending tick at window close.
func (w *Watchdog) Disarm() {
	w.event.Cancel()
}

// Stalled reports the stall condition: the session tree was requested,
// the honeypot kept drawing attack packets since the last check, yet
// no new capture landed.
func (w *Watchdog) Stalled(requested bool, hp, captures int) bool {
	return requested && hp > w.lastHp && captures == w.lastCaptures
}

// Observe snapshots progress after a tick's stall handling.
func (w *Watchdog) Observe(hp, captures int) {
	w.lastHp, w.lastCaptures = hp, captures
}

// Rearm schedules the next tick. Call after Observe so the re-seed
// messages (if any) enter the event heap before the tick timer —
// fixed-seed fingerprints depend on that insertion order.
func (w *Watchdog) Rearm(sim *des.Simulator, tick func()) {
	w.event = sim.After(w.Interval, tick)
}
