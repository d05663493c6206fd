package pushback

import (
	"errors"
	"sort"

	"repro/internal/des"
	"repro/internal/netsim"
)

// Config tunes the ACC/Pushback deployment.
type Config struct {
	// TargetUtil is the utilization the rate limit aims the aggregate
	// at: limit = capacity*TargetUtil − other traffic (default 0.9).
	TargetUtil float64
	// SustainIntervals is how many consecutive congested intervals a
	// port must show before ACC installs a limiter (default 2 —
	// Mahajan's "sustained congestion" requirement; 1 reacts to any
	// single bad interval).
	SustainIntervals int
	// WeightedShares switches upstream share division from plain
	// per-port max-min to host-count-weighted max-min, modelling
	// level-k max-min fairness (Sec. 2's mitigation comparator).
	// Requires Deployment.HostWeight.
	WeightedShares bool
}

func (c *Config) fillDefaults() {
	if c.TargetUtil <= 0 {
		c.TargetUtil = 0.9
	}
	if c.SustainIntervals <= 0 {
		c.SustainIntervals = 2
	}
}

// request is the pushback control payload: limit the aggregate group
// Agg to Limit bits/s, propagating at most Depth further hops.
type request struct {
	Agg   int
	Limit float64
	Depth int
}

// Deployment runs ACC/Pushback over a network.
type Deployment struct {
	Cfg Config
	sim *des.Simulator
	net *netsim.Network

	// aggOf maps a defended destination to its aggregate group.
	// ACC identifies aggregates by destination prefix; a replicated
	// server pool shares one prefix, so New places every defended
	// destination in a single group (use NewGroups for several).
	aggOf     map[netsim.NodeID]int
	numGroups int

	agents map[netsim.NodeID]*Agent
	stop   func()

	// HostWeight returns the number of end hosts reachable through a
	// port (used by WeightedShares). The experiments compute it from
	// the topology; a real deployment would use the level-k protocol
	// of Yau et al.
	HostWeight func(*netsim.Port) float64

	// Stats
	RequestsSent    int64
	LimitersCreated int64
	LimitDrops      int64
}

// New builds a deployment defending the given destination set as one
// prefix aggregate.
func New(nw *netsim.Network, defended []netsim.NodeID, cfg Config) (*Deployment, error) {
	if len(defended) == 0 {
		return nil, errors.New("pushback: empty defended set")
	}
	return NewGroups(nw, [][]netsim.NodeID{defended}, cfg)
}

// NewGroups builds a deployment with one aggregate per destination
// group (prefix).
func NewGroups(nw *netsim.Network, groups [][]netsim.NodeID, cfg Config) (*Deployment, error) {
	if nw == nil || len(groups) == 0 {
		return nil, errors.New("pushback: nil network or empty defended set")
	}
	cfg.fillDefaults()
	d := &Deployment{
		Cfg:       cfg,
		sim:       nw.Sim,
		net:       nw,
		aggOf:     map[netsim.NodeID]int{},
		numGroups: len(groups),
		agents:    map[netsim.NodeID]*Agent{},
	}
	for g, ids := range groups {
		if len(ids) == 0 {
			return nil, errors.New("pushback: empty aggregate group")
		}
		for _, id := range ids {
			d.aggOf[id] = g
		}
	}
	return d, nil
}

// DeployRouter activates ACC/Pushback on a router.
func (d *Deployment) DeployRouter(n *netsim.Node) *Agent {
	if a, ok := d.agents[n.ID]; ok {
		return a
	}
	a := newAgent(d, n)
	d.agents[n.ID] = a
	return a
}

// DeployRouters activates the scheme on every listed node.
func (d *Deployment) DeployRouters(ns []*netsim.Node) {
	for _, n := range ns {
		d.DeployRouter(n)
	}
}

// Start begins the periodic ACC control loop.
func (d *Deployment) Start() {
	if d.stop != nil {
		panic("pushback: already started")
	}
	d.stop = d.sim.Every(d.sim.Now()+interval, interval, func() {
		// Ticks send rate-limit requests upstream; run them in
		// sorted router order so message ordering is reproducible.
		ids := make([]netsim.NodeID, 0, len(d.agents))
		for id := range d.agents {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			d.agents[id].tick()
		}
	})
}

// Stop halts the control loop (installed limiters expire naturally).
func (d *Deployment) Stop() {
	if d.stop != nil {
		d.stop()
		d.stop = nil
	}
}

// Agent returns the router agent for a node, or nil.
func (d *Deployment) Agent(id netsim.NodeID) *Agent { return d.agents[id] }

// ActiveLimiters counts currently installed rate limiters across all
// routers.
func (d *Deployment) ActiveLimiters() int {
	n := 0
	for _, a := range d.agents {
		n += len(a.limiters)
	}
	return n
}
