// Package metrics provides the measurement instruments of the
// evaluation: a bottleneck goodput monitor producing the time series
// of Fig. 8, a capture-time recorder for the model-validation
// experiments, and small summary-statistics helpers.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/netsim"
)

// ControlStats aggregates control-plane reliability counters: what the
// ack/retransmission machinery and the lease-based session expiry did
// during a run. internal/core embeds one; experiments surface it next
// to capture times so the cost of surviving faults is visible.
type ControlStats struct {
	// AcksSent counts acknowledgements emitted by receivers.
	AcksSent int64
	// AcksReceived counts acknowledgements delivered to senders
	// (including late duplicates for already-completed transfers).
	AcksReceived int64
	// Retransmissions counts re-sent control messages.
	Retransmissions int64
	// GiveUps counts messages abandoned after the retry budget.
	GiveUps int64
	// LeaseExpiries counts sessions closed because their lease ran out
	// without a refresh — the self-healing path for lost cancels and
	// dead downstream neighbors.
	LeaseExpiries int64
	// SessionsLostToCrash counts honeypot sessions wiped by router
	// crashes.
	SessionsLostToCrash int64
}

// Add accumulates o into s.
func (s *ControlStats) Add(o ControlStats) {
	s.AcksSent += o.AcksSent
	s.AcksReceived += o.AcksReceived
	s.Retransmissions += o.Retransmissions
	s.GiveUps += o.GiveUps
	s.LeaseExpiries += o.LeaseExpiries
	s.SessionsLostToCrash += o.SessionsLostToCrash
}

func (s ControlStats) String() string {
	return fmt.Sprintf("acks %d/%d (sent/rcvd), retransmissions %d, give-ups %d, lease expiries %d, sessions lost to crash %d",
		s.AcksSent, s.AcksReceived, s.Retransmissions, s.GiveUps, s.LeaseExpiries, s.SessionsLostToCrash)
}

// FilterAccuracy scores a victim-side filter's verdicts against ground
// truth. Defense code must never read ground truth (Packet.Legit,
// Packet.TrueSrc — hbplint's groundtruth analyzer enforces this), so
// filters return only their verdict and the experiment harness feeds
// each (truth, verdict) pair into one of these.
type FilterAccuracy struct {
	// FalsePositives counts legitimate traffic wrongly dropped,
	// LegitPassed legitimate traffic correctly passed.
	FalsePositives int64
	LegitPassed    int64
	// FalseNegatives counts attack traffic wrongly passed,
	// AttackDropped attack traffic correctly dropped.
	FalseNegatives int64
	AttackDropped  int64
}

// Observe records one verdict: legit is the ground truth, passed the
// filter's decision.
func (a *FilterAccuracy) Observe(legit, passed bool) {
	switch {
	case legit && passed:
		a.LegitPassed++
	case legit && !passed:
		a.FalsePositives++
	case !legit && passed:
		a.FalseNegatives++
	default:
		a.AttackDropped++
	}
}

// FalsePositiveRate returns FP / (FP + legitimate passed), i.e. the
// fraction of legitimate traffic wrongly dropped.
func (a *FilterAccuracy) FalsePositiveRate() float64 {
	total := float64(a.FalsePositives + a.LegitPassed)
	if total == 0 {
		return 0
	}
	return float64(a.FalsePositives) / total
}

// FalseNegativeRate returns FN / (FN + attack dropped).
func (a *FilterAccuracy) FalseNegativeRate() float64 {
	total := float64(a.FalseNegatives + a.AttackDropped)
	if total == 0 {
		return 0
	}
	return float64(a.FalseNegatives) / total
}

// SecurityStats aggregates the adversarial-robustness counters of the
// hardened control plane: what authentication, replay suppression and
// the state budgets rejected or shed during a run. internal/core and
// internal/asnet embed one; the byzantine experiments surface it next
// to capture times so the cost of surviving a malicious control plane
// is visible (see DESIGN.md, "Threat model & graceful degradation").
type SecurityStats struct {
	// AuthRejects counts control messages rejected for a missing or
	// invalid per-epoch MAC.
	AuthRejects int64
	// ReplayRejects counts sequenced frames suppressed by anti-replay
	// windows. Benign retransmission duplicates land here too — they
	// are indistinguishable from replays by design.
	ReplayRejects int64
	// AdmissionRejects counts session requests refused because the
	// table was full and the incoming session ranked below every
	// resident one.
	AdmissionRejects int64
	// SessionEvictions counts sessions shed by the table budget to
	// admit a higher-priority one.
	SessionEvictions int64
	// DedupEvictions counts flood-dedup entries forgotten by the cap.
	DedupEvictions int64
	// PendingOverflows counts reliable transfers degraded to
	// fire-and-forget because the retransmit table was at budget.
	PendingOverflows int64
	// WatchdogReseeds counts stalled propagations re-seeded by the
	// server watchdog.
	WatchdogReseeds int64
	// ByzantineInjections counts control frames injected by
	// misbehaving nodes (forge, replay, amplify, mark-spoof).
	ByzantineInjections int64
	// MarkSpoofRejects counts ingress identifications discarded because
	// the claimed edge-router mark named a non-neighbor (a spoofed
	// mark; inter-AS scheme only).
	MarkSpoofRejects int64
}

// Add accumulates o into s.
func (s *SecurityStats) Add(o SecurityStats) {
	s.AuthRejects += o.AuthRejects
	s.ReplayRejects += o.ReplayRejects
	s.AdmissionRejects += o.AdmissionRejects
	s.SessionEvictions += o.SessionEvictions
	s.DedupEvictions += o.DedupEvictions
	s.PendingOverflows += o.PendingOverflows
	s.WatchdogReseeds += o.WatchdogReseeds
	s.ByzantineInjections += o.ByzantineInjections
	s.MarkSpoofRejects += o.MarkSpoofRejects
}

func (s SecurityStats) String() string {
	return fmt.Sprintf("auth rejects %d, replay rejects %d, admission rejects %d, session evictions %d, dedup evictions %d, pending overflows %d, watchdog reseeds %d, byzantine injections %d, mark-spoof rejects %d",
		s.AuthRejects, s.ReplayRejects, s.AdmissionRejects, s.SessionEvictions,
		s.DedupEvictions, s.PendingOverflows, s.WatchdogReseeds, s.ByzantineInjections,
		s.MarkSpoofRejects)
}

// Series is a sampled time series.
type Series struct {
	Times  []float64
	Values []float64
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// MeanBetween averages samples with t0 <= t < t1; it returns 0 for an
// empty window.
func (s *Series) MeanBetween(t0, t1 float64) float64 {
	sum, n := 0.0, 0
	for i, t := range s.Times {
		if t >= t0 && t < t1 {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Min returns the smallest value (0 for empty series).
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ThroughputMonitor samples legitimate-data goodput crossing one port
// as a fraction of the attached link's capacity — the paper's "client
// throughput %" at the bottleneck.
type ThroughputMonitor struct {
	series   Series
	port     *netsim.Port
	interval float64
	last     int64
	stop     func()
}

// NewBottleneckMonitor samples the legitimate goodput arriving at
// `into` over the given link every interval seconds. Start time is
// the current simulation time.
func NewBottleneckMonitor(sim *des.Simulator, link *netsim.Link, into *netsim.Node, interval float64) *ThroughputMonitor {
	var port *netsim.Port
	if link.A().Node() == into {
		port = link.A()
	} else {
		port = link.B()
	}
	m := &ThroughputMonitor{port: port, interval: interval}
	m.stop = sim.Every(sim.Now()+interval, interval, func() {
		cur := port.RxLegitDataBytes
		delta := cur - m.last
		m.last = cur
		frac := float64(delta*8) / (link.Bandwidth * interval)
		m.series.Times = append(m.series.Times, sim.Now())
		m.series.Values = append(m.series.Values, frac)
	})
	return m
}

// Stop halts sampling.
func (m *ThroughputMonitor) Stop() { m.stop() }

// Series returns the samples collected so far. Values are fractions
// of link capacity in [0, ~1].
func (m *ThroughputMonitor) Series() *Series { return &m.series }

// CaptureTimes converts absolute capture timestamps into capture
// times relative to an attack start, dropping events before the
// attack began.
func CaptureTimes(captureAt []float64, attackStart float64) []float64 {
	out := make([]float64, 0, len(captureAt))
	for _, t := range captureAt {
		if t >= attackStart {
			out = append(out, t-attackStart)
		}
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
