// Package roaming implements the roaming-honeypots scheme of Sec. 4:
// a pool of N replicated servers of which k are active per epoch, the
// active subset being derived from a backward one-way hash chain and
// shared with legitimate clients as time-limited subscription keys.
// Idle servers act as honeypots; traffic they receive is attack
// traffic by construction, which is the signature source for honeypot
// back-propagation (internal/core).
//
// A Pool derives each epoch's active set once, on first use, and
// every reader of that epoch — the epoch broadcast, subscriptions
// issued from the pool, the servers' honeypot look-ahead — shares the
// one slice. Shared sets are read-only: a caller that needs to reorder
// or edit one copies it first.
package roaming

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/hashchain"
	"repro/internal/netsim"
)

// Config parameterizes a server pool.
type Config struct {
	// N is the pool size, K the number of concurrently active servers.
	// The honeypot probability of the analysis is p = (N-K)/N.
	N, K int
	// EpochLen is the roaming period m in seconds.
	EpochLen float64
	// Guard is the slack δ+γ by which honeypot windows shrink at both
	// ends: a server starting a honeypot epoch waits Guard before
	// treating arrivals as attack traffic (in-transit legitimate
	// packets and clock skew), and stops Guard before the epoch ends.
	Guard float64
	// Epochs is the hash-chain length (maximum epoch count).
	Epochs int
	// ChainSeed seeds the hash chain, for reproducible schedules.
	ChainSeed []byte
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return errors.New("roaming: N must be >= 1")
	case c.K < 1 || c.K > c.N:
		return fmt.Errorf("roaming: K=%d out of range [1,%d]", c.K, c.N)
	case c.EpochLen <= 0:
		return errors.New("roaming: non-positive epoch length")
	case c.Guard < 0 || c.Guard*2 >= c.EpochLen:
		return fmt.Errorf("roaming: guard %v must be in [0, m/2)", c.Guard)
	case c.Epochs < 1:
		return errors.New("roaming: need at least one epoch")
	}
	return nil
}

// HoneypotProbability returns p = (N-K)/N.
func (c Config) HoneypotProbability() float64 {
	return float64(c.N-c.K) / float64(c.N)
}

// Listener observes epoch transitions. Server-side defense agents and
// (for the follower-attack model) adversaries who have compromised the
// schedule implement it.
type Listener interface {
	// EpochStart fires at each epoch boundary with the new active set.
	// The slice is the pool's memoized set, shared with every other
	// reader of the epoch: read-only.
	EpochStart(epoch int, active []netsim.NodeID)
}

// ListenerFunc adapts a function to Listener.
type ListenerFunc func(epoch int, active []netsim.NodeID)

// EpochStart implements Listener.
func (f ListenerFunc) EpochStart(epoch int, active []netsim.NodeID) { f(epoch, active) }

// Pool coordinates the roaming schedule for a set of server nodes.
type Pool struct {
	cfg     Config
	sim     *des.Simulator
	servers []*netsim.Node
	chain   *hashchain.Chain

	// sets memoizes ActiveSetAt: entry e is nil until epoch e's set
	// is first derived (K >= 1, so a derived set is never nil).
	sets [][]netsim.NodeID

	epoch     int
	activeIDs []netsim.NodeID
	listeners []Listener
	started   bool
	stop      func()
}

// NewPool builds a pool over the given server nodes; len(servers) must
// equal cfg.N.
func NewPool(sim *des.Simulator, servers []*netsim.Node, cfg Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(servers) != cfg.N {
		return nil, fmt.Errorf("roaming: %d server nodes for N=%d", len(servers), cfg.N)
	}
	chain, err := hashchain.Generate(cfg.ChainSeed, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	return &Pool{
		cfg: cfg, sim: sim, servers: servers, chain: chain,
		sets: make([][]netsim.NodeID, cfg.Epochs), epoch: -1,
	}, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Chain exposes the underlying hash chain (the subscription service).
func (p *Pool) Chain() *hashchain.Chain { return p.chain }

// Servers returns the pool's server nodes in index order.
func (p *Pool) Servers() []*netsim.Node { return p.servers }

// Subscribe registers an epoch listener. Must be called before Start
// or between epochs; listeners added mid-run begin receiving at the
// next boundary.
func (p *Pool) Subscribe(l Listener) { p.listeners = append(p.listeners, l) }

// Start begins the epoch schedule at the current simulation time.
func (p *Pool) Start() {
	if p.started {
		panic("roaming: pool already started")
	}
	p.started = true
	p.stop = p.sim.Every(p.sim.Now(), p.cfg.EpochLen, p.advanceEpoch)
}

// Stop halts the epoch schedule.
func (p *Pool) Stop() {
	if p.stop != nil {
		p.stop()
	}
}

func (p *Pool) advanceEpoch() {
	if p.epoch+1 >= p.cfg.Epochs {
		p.Stop()
		return
	}
	p.epoch++
	set, err := p.ActiveSetAt(p.epoch)
	if err != nil {
		panic(err) // bounds checked above
	}
	p.activeIDs = set
	for _, l := range p.listeners {
		l.EpochStart(p.epoch, p.activeIDs)
	}
}

// ActiveSetAt returns the active server IDs for an epoch, derived from
// the chain on the first call and memoized after, without advancing
// the schedule. Any holder of the epoch key obtains the same answer.
// The returned slice is shared by every caller: read-only.
func (p *Pool) ActiveSetAt(epoch int) ([]netsim.NodeID, error) {
	key, err := p.chain.Key(epoch)
	if err != nil {
		return nil, err
	}
	if set := p.sets[epoch]; set != nil {
		return set, nil
	}
	set := ActiveServers(key, p.servers, p.cfg.K)
	p.sets[epoch] = set
	return set, nil
}

// ActiveServers maps a chain key to the active subset of servers.
func ActiveServers(key hashchain.Key, servers []*netsim.Node, k int) []netsim.NodeID {
	idx := hashchain.ActiveSet(key, len(servers), k)
	out := make([]netsim.NodeID, len(idx))
	for i, j := range idx {
		out[i] = servers[j].ID
	}
	return out
}

// Epoch returns the current epoch index (-1 before Start's first
// boundary fires).
func (p *Pool) Epoch() int { return p.epoch }

// IsActive reports whether the server is in the current active set.
func (p *Pool) IsActive(id netsim.NodeID) bool { return slices.Contains(p.activeIDs, id) }

// Active returns the current active server IDs (read-only).
func (p *Pool) Active() []netsim.NodeID { return p.activeIDs }

// EpochStartTime returns the simulation time at which the given epoch
// begins, assuming Start was called at time 0 (the experiments do).
func (p *Pool) EpochStartTime(epoch int) float64 {
	return float64(epoch) * p.cfg.EpochLen
}

// NextHoneypotEpoch returns the first epoch >= from in which server id
// is scheduled to be a honeypot, or -1 if none remains in the chain.
// Servers use it to pre-arm progressive back-propagation.
func (p *Pool) NextHoneypotEpoch(id netsim.NodeID, from int) int {
	for e := from; e < p.cfg.Epochs; e++ {
		set, err := p.ActiveSetAt(e)
		if err != nil {
			return -1
		}
		if !slices.Contains(set, id) {
			return e
		}
	}
	return -1
}
