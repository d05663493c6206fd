package asnet

import (
	"fmt"

	"repro/internal/hashchain"
	"repro/internal/hbp"
)

// Schedule is the roaming-honeypots epoch schedule as seen by one
// server of the pool: epoch length m, guard slack, and the hash-chain
// derived active sets (Sec. 4) for pool parameters N and K.
type Schedule struct {
	// M is the epoch length in seconds; Guard shrinks honeypot
	// windows at both ends.
	M, Guard float64
	// N, K are the pool size and concurrent active count.
	N, K int
	// Member is this server's index within the pool.
	Member int

	chain  *hashchain.Chain
	epochs int
}

// NewSchedule derives a schedule from a chain seed.
func NewSchedule(seed []byte, n, k, member int, m, guard float64, epochs int) (*Schedule, error) {
	if member < 0 || member >= n {
		return nil, fmt.Errorf("asnet: member %d outside pool of %d", member, n)
	}
	if k < 1 || k >= n {
		return nil, fmt.Errorf("asnet: k=%d must be in [1,%d)", k, n)
	}
	if m <= 0 || guard < 0 || guard*2 >= m {
		return nil, fmt.Errorf("asnet: bad m=%v guard=%v", m, guard)
	}
	chain, err := hashchain.Generate(seed, epochs)
	if err != nil {
		return nil, err
	}
	return &Schedule{M: m, Guard: guard, N: n, K: k, Member: member, chain: chain, epochs: epochs}, nil
}

// Epochs returns the schedule length.
func (s *Schedule) Epochs() int { return s.epochs }

// HoneypotAt reports whether the member acts as a honeypot in the
// epoch.
func (s *Schedule) HoneypotAt(epoch int) bool {
	key, err := s.chain.Key(epoch)
	if err != nil {
		return false
	}
	for _, idx := range hashchain.ActiveSet(key, s.N, s.K) {
		if idx == s.Member {
			return false
		}
	}
	return true
}

// NextHoneypotEpoch returns the first honeypot epoch >= from, or -1.
func (s *Schedule) NextHoneypotEpoch(from int) int {
	for e := from; e < s.epochs; e++ {
		if s.HoneypotAt(e) {
			return e
		}
	}
	return -1
}

// StartTime returns the epoch's start time (schedule starts at 0).
func (s *Schedule) StartTime(epoch int) float64 { return float64(epoch) * s.M }

// HoneypotProbability returns p = (N-K)/N.
func (s *Schedule) HoneypotProbability() float64 { return float64(s.N-s.K) / float64(s.N) }

// Server is the defended server: it follows its schedule and drives
// inter-AS session setup/teardown. The victim-side algorithm —
// activation threshold, watchdog, progressive intermediate-AS list —
// is the embedded hbp.Controller shared with the router plane.
type Server struct {
	hbp.Controller[ASID]

	Home  *AS
	Sched *Schedule

	d *Defense
}

// NewServer creates the defended server in its home AS and starts its
// window timers (the schedule begins at simulation time 0).
func NewServer(d *Defense, home *AS, sched *Schedule) *Server {
	s := &Server{Home: home, Sched: sched, d: d}
	s.Controller = hbp.NewController[ASID](d.g.Sim, asPlane{s}, hbp.ControllerConfig{
		ActivationThreshold: d.Cfg.ActivationThreshold,
		Progressive:         d.Cfg.Progressive,
		Rho:                 d.Cfg.Rho,
		Tau:                 d.Cfg.Tau,
		Watchdog:            d.Cfg.Watchdog,
		WatchdogInterval:    d.Cfg.WatchdogInterval,
		EventPrefix:         "asnet",
	})
	d.servers = append(d.servers, s)
	d.ensureChain(sched.Epochs())
	sim := d.g.Sim
	for e := 0; e < sched.Epochs(); e++ {
		if !sched.HoneypotAt(e) {
			continue
		}
		e := e
		sim.AtNamed(sched.StartTime(e)+sched.Guard, "asnet-window-open", func() { s.OpenWindow(e) })
		sim.AtNamed(sched.StartTime(e)+sched.M-sched.Guard, "asnet-window-close", func() { s.CloseWindow(e) })
	}
	return s
}

// asPlane is the controller's AS-plane transport: the tree root is the
// home AS's HSM, intermediates are HSMs of other ASes, and windows
// come from the server's schedule.
type asPlane struct{ *Server }

// send delivers one authenticated open/close to the HSM of an AS. A
// non-deploying AS has no HSM to address: nothing leaves.
func (s asPlane) send(to ASID, op ctrlOp, epoch int) bool {
	target := s.d.g.AS(to)
	if target == nil || !target.Deployed() {
		return false
	}
	m := &ctrlMsg{op: op, server: s.Server, epoch: epoch, origin: s.Home.ID}
	s.d.sendAuthed(s.Home.ID, to, m, target.hsm.handleCtrl)
	return true
}

func (s asPlane) Request(epoch int, reseed bool) bool {
	if reseed {
		s.d.Sec.WatchdogReseeds++
	}
	return s.send(s.Home.ID, opOpen, epoch)
}

func (s asPlane) Cancel(epoch int) bool { return s.send(s.Home.ID, opClose, epoch) }

func (s asPlane) DirectRequest(to ASID, epoch int) bool { return s.send(to, opOpen, epoch) }

func (s asPlane) DirectCancel(to ASID, epoch int) bool { return s.send(to, opClose, epoch) }

func (s asPlane) NextWindow(from int) (int, float64, bool) {
	next := s.Sched.NextHoneypotEpoch(from)
	if next < 0 {
		return 0, 0, false
	}
	return next, s.Sched.StartTime(next) + s.Sched.Guard, true
}

func (s asPlane) CaptureCount() int { return s.d.CaptureCount() }

// Attacker is a zombie in a stub AS flooding the server. Rate is in
// packets/s; on-off bursting optional.
type Attacker struct {
	AS     *AS
	Server *Server
	// Rate is packets per second during on-time.
	Rate float64
	// Ton/Toff, when Ton > 0, select an on-off pattern.
	Ton, Toff float64

	d        *Defense
	path     []*AS
	captured bool
	running  bool
	Sent     int64
}

// NewAttacker creates a zombie in the given AS.
func NewAttacker(d *Defense, home *AS, target *Server, rate float64) *Attacker {
	a := &Attacker{AS: home, Server: target, Rate: rate, d: d}
	a.path = d.g.Path(home.ID, target.Home.ID)
	if a.path == nil {
		panic("asnet: attacker cannot reach server")
	}
	return a
}

// Captured reports whether intra-AS traceback shut the zombie down.
func (a *Attacker) Captured() bool { return a.captured }

// Start begins the flood at the current simulation time.
func (a *Attacker) Start() {
	if a.running {
		return
	}
	a.running = true
	sim := a.d.g.Sim
	interval := 1 / a.Rate
	cycle := a.Ton + a.Toff
	var tick func()
	tick = func() {
		if !a.running || a.captured {
			return
		}
		// On-off gating by simulation-clock phase (bursts align to
		// multiples of Ton+Toff on the global clock).
		if a.Ton > 0 && cycle > 0 {
			phase := sim.Now() - float64(int(sim.Now()/cycle))*cycle
			if phase >= a.Ton {
				// Sleep to the next burst start.
				sim.After(cycle-phase, tick)
				return
			}
		}
		a.emit()
		sim.After(interval, tick)
	}
	sim.After(0, tick)
}

// Stop halts the flood.
func (a *Attacker) Stop() { a.running = false }

// emit launches one packet along the AS path, letting each AS's HSM
// observe it with the correct ingress neighbor.
func (a *Attacker) emit() {
	a.Sent++
	sim := a.d.g.Sim
	// Origin AS observes a locally originated packet.
	if a.AS.Deployed() {
		a.AS.hsm.observe(a.Server, -1, a)
	}
	var step func(i int)
	step = func(i int) {
		if i >= len(a.path) {
			a.Server.HoneypotPacket()
			return
		}
		cur := a.path[i]
		from := a.path[i-1].ID
		if cur.Deployed() {
			cur.hsm.observe(a.Server, from, a)
		}
		sim.After(a.d.g.DataDelay, func() { step(i + 1) })
	}
	if len(a.path) == 1 {
		// Attacker and server share the AS; delivery is local.
		sim.After(a.d.g.DataDelay, func() { a.Server.HoneypotPacket() })
		return
	}
	sim.After(a.d.g.DataDelay, func() { step(1) })
}
