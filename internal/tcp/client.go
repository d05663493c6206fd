package tcp

import (
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
)

// NewServerEndpoint wires transport reception into a roaming server
// agent: data packets the agent accepts while active are delivered to
// the endpoint (which ACKs them); honeypot windows, blacklisting and
// handshake verification stay with the agent. The endpoint does not
// replace the node handler.
func NewServerEndpoint(agent *roaming.ServerAgent) *Endpoint {
	e := &Endpoint{
		Node:    agent.Node,
		sim:     agent.Node.Network().Sim,
		senders: map[int]*Sender{},
		recv:    map[int]*rxFlow{},
	}
	agent.OnServe = func(p *netsim.Packet) { e.AcceptData(p) }
	agent.OnHandshake = func(p *netsim.Packet) { e.AcceptHandshake(p) }
	return e
}

// RoamingClient is a legitimate client running a TCP flow that
// follows the roaming schedule: at every epoch boundary it derives
// the active set from its subscription and, if its server went idle,
// migrates the connection (checkpoint carry-over + new handshake +
// slow-start restart, Sec. 4).
type RoamingClient struct {
	Sender *Sender

	sub     *roaming.Subscription
	servers []*netsim.Node
	rng     *des.RNG

	stopEpochs func()
	started    bool
}

// NewRoamingClient builds the client on an endpoint-owned host.
func NewRoamingClient(e *Endpoint, sub *roaming.Subscription, servers []*netsim.Node, flowID int, cfg SenderConfig, rng *des.RNG) *RoamingClient {
	c := &RoamingClient{
		sub:     sub,
		servers: servers,
		rng:     rng.Split(int64(e.Node.ID) + 13),
	}
	c.Sender = e.NewSender(netsim.None, flowID, cfg)
	return c
}

// Start opens the connection to a current active server and begins
// tracking epoch boundaries.
func (c *RoamingClient) Start(epochLen float64) {
	if c.started {
		return
	}
	c.started = true
	sim := c.Sender.sim
	c.pickActive(true)
	c.Sender.Start()
	next := (float64(int(sim.Now()/epochLen))+1)*epochLen - c.sub.ClockOffset
	if next <= sim.Now() {
		next += epochLen
	}
	c.stopEpochs = sim.Every(next, epochLen, func() { c.pickActive(false) })
}

// Stop halts the flow and the epoch tracking.
func (c *RoamingClient) Stop() {
	c.started = false
	if c.stopEpochs != nil {
		c.stopEpochs()
	}
	c.Sender.Stop()
}

// pickActive re-derives the active set; on initial selection it picks
// uniformly, afterwards it migrates only if the current server left
// the active set (sticky servers avoid gratuitous slow-start
// restarts).
func (c *RoamingClient) pickActive(initial bool) {
	sim := c.Sender.sim
	epoch := c.sub.EpochAt(sim.Now())
	if c.sub.Expired(epoch) {
		return
	}
	active, err := c.sub.ActiveServers(epoch)
	if err != nil || len(active) == 0 {
		return
	}
	if !initial {
		for _, id := range active {
			if id == c.Sender.Target() {
				return // still active; keep the connection
			}
		}
	}
	target := des.Pick(c.rng, active)
	if initial {
		c.Sender.dst = target
		return
	}
	c.Sender.Retarget(target)
}
