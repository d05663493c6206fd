package pushback

import (
	"sort"

	"repro/internal/netsim"
)

// The fixed ACC parameters of the one setting the evaluation runs.
const (
	// interval is the ACC control period in seconds.
	interval = 1.0
	// dropRateThreshold declares an output link congested when its
	// data-lane drop fraction over one interval exceeds it.
	dropRateThreshold = 0.05
	// floorFraction bounds the limit from below as a fraction of link
	// capacity, so an aggregate is never throttled to zero.
	floorFraction = 0.02
	// minAggregateShare is the arrival share a destination must hold
	// on the congested link before being singled out as the
	// misbehaving aggregate.
	minAggregateShare = 0.3
	// maxDepth bounds upstream propagation in hops (effectively
	// unbounded on the simulated trees).
	maxDepth = 32
	// expiryIntervals is how many refresh-free intervals an upstream
	// limiter survives.
	expiryIntervals = 3
	// burst is the token-bucket depth in seconds' worth of bytes at
	// the limit rate.
	burst = 0.1
)

// limiter is a token-bucket rate limiter for one destination
// aggregate at one router.
type limiter struct {
	agg   int     // aggregate group
	rate  float64 // bits/s
	depth int     // remaining pushback depth
	// self marks a limiter installed by local ACC congestion
	// detection (as opposed to a downstream pushback request).
	self bool

	tokens     float64 // bytes
	lastRefill float64
	expiresAt  float64

	Drops     int64
	lastDrops int64
}

func (l *limiter) burstBytes() float64 {
	b := l.rate * burst / 8
	if b < 3000 {
		b = 3000 // at least a couple of full packets
	}
	return b
}

// allow implements the token bucket: refill by elapsed time, then
// spend size bytes if available.
func (l *limiter) allow(now float64, size int) bool {
	elapsed := now - l.lastRefill
	if elapsed > 0 {
		l.tokens += l.rate * elapsed / 8
		l.lastRefill = now
	}
	if max := l.burstBytes(); l.tokens > max {
		l.tokens = max
	}
	if l.tokens >= float64(size) {
		l.tokens -= float64(size)
		return true
	}
	l.Drops++
	return false
}

// dstAcct accumulates one interval of arrival accounting for one
// defended destination at one router.
type dstAcct struct {
	totalBytes float64
	perIn      map[*netsim.Port]float64
	perOut     map[*netsim.Port]float64
}

// portSnap remembers cumulative queue counters to compute per-interval
// deltas, plus the current congestion streak.
type portSnap struct {
	enq, drops int64
	streak     int
}

// Agent is ACC/Pushback on one router.
type Agent struct {
	Node *netsim.Node
	d    *Deployment

	limiters map[int]*limiter
	acct     map[int]*dstAcct
	snaps    map[*netsim.Port]portSnap

	// Stats
	Congestions      int64
	RequestsReceived int64
}

func newAgent(d *Deployment, n *netsim.Node) *Agent {
	a := &Agent{
		Node:     n,
		d:        d,
		limiters: map[int]*limiter{},
		acct:     map[int]*dstAcct{},
		snaps:    map[*netsim.Port]portSnap{},
	}
	n.AddHook(netsim.ForwardFunc(a.hook))
	n.Handler = a.handleControl
	for _, pt := range n.Ports() {
		a.snaps[pt] = portSnap{}
	}
	return a
}

// Limiter returns the current rate limit applying to destination dst
// in bits/s, or 0 if none is installed.
func (a *Agent) Limiter(dst netsim.NodeID) float64 {
	agg, ok := a.d.aggOf[dst]
	if !ok {
		return 0
	}
	if l, ok := a.limiters[agg]; ok {
		return l.rate
	}
	return 0
}

// sortedAggs returns the aggregate ids with accounting state this
// interval, ascending.
func (a *Agent) sortedAggs() []int {
	aggs := make([]int, 0, len(a.acct))
	for agg := range a.acct {
		aggs = append(aggs, agg)
	}
	sort.Ints(aggs)
	return aggs
}

// hook does per-aggregate accounting and enforces installed limiters
// on the forwarding path.
func (a *Agent) hook(n *netsim.Node, p *netsim.Packet, in, out *netsim.Port) bool {
	if p.Type == netsim.Control {
		return true
	}
	agg, isAgg := a.d.aggOf[p.Dst]
	if !isAgg {
		return true
	}
	acc, ok := a.acct[agg]
	if !ok {
		acc = &dstAcct{perIn: map[*netsim.Port]float64{}, perOut: map[*netsim.Port]float64{}}
		a.acct[agg] = acc
	}
	acc.totalBytes += float64(p.Size)
	if in != nil {
		acc.perIn[in] += float64(p.Size)
	}
	acc.perOut[out] += float64(p.Size)

	if l, ok := a.limiters[agg]; ok {
		now := a.d.sim.Now()
		if now < l.expiresAt && !l.allow(now, p.Size) {
			a.d.LimitDrops++
			return false
		}
	}
	return true
}

// handleControl processes pushback requests from downstream routers.
func (a *Agent) handleControl(p *netsim.Packet, in *netsim.Port) {
	req, ok := p.Payload.(*request)
	if !ok || p.Type != netsim.Control {
		return
	}
	// ACC-style authentication: requests must come from an adjacent
	// deploying router (TTL untouched by intermediate hops).
	if in == nil || p.TTL != netsim.DefaultTTL {
		return
	}
	if a.d.Agent(in.Peer().Node().ID) == nil {
		return
	}
	a.RequestsReceived++
	if req.Agg < 0 || req.Agg >= a.d.numGroups {
		return
	}
	a.installLimiter(req.Agg, req.Limit, req.Depth, false)
}

func (a *Agent) installLimiter(agg int, rate float64, depth int, self bool) *limiter {
	now := a.d.sim.Now()
	l, ok := a.limiters[agg]
	if !ok {
		l = &limiter{agg: agg, lastRefill: now}
		l.tokens = 0
		a.limiters[agg] = l
		a.d.LimitersCreated++
	}
	l.rate = rate
	l.depth = depth
	l.self = self || l.self
	l.expiresAt = now + expiryIntervals*interval
	return l
}

// tick runs one ACC control interval: detect congestion, refresh the
// local limiter, propagate upstream shares, expire stale limiters,
// and reset accounting.
func (a *Agent) tick() {
	cfg := &a.d.Cfg
	now := a.d.sim.Now()

	// 1. Congestion detection per output port.
	for _, pt := range a.Node.Ports() {
		prev := a.snaps[pt]
		cur := portSnap{enq: pt.QueueEnqueued(), drops: pt.QueueDrops()}
		cur.streak = prev.streak
		dEnq := cur.enq - prev.enq
		dDrop := cur.drops - prev.drops
		total := dEnq + dDrop
		if total == 0 || float64(dDrop)/float64(total) < dropRateThreshold {
			cur.streak = 0
			a.snaps[pt] = cur
			continue
		}
		cur.streak++
		a.snaps[pt] = cur
		// Sustained-congestion requirement: transient bursts of a
		// well-behaved load must not trigger aggregate control.
		if cur.streak < cfg.SustainIntervals {
			continue
		}
		a.Congestions++
		// 2. Identify the dominant defended aggregate on this port.
		// Scanned in sorted aggregate order: on a byte-count tie the
		// smallest aggregate wins, instead of whichever the map
		// yielded first.
		worst := -1
		var worstBytes, portBytes float64
		for _, agg := range a.sortedAggs() {
			b := a.acct[agg].perOut[pt]
			portBytes += b
			if b > worstBytes {
				worstBytes, worst = b, agg
			}
		}
		if worst < 0 || portBytes == 0 || worstBytes/portBytes < minAggregateShare {
			continue
		}
		capacity := pt.Link().Bandwidth
		otherRate := (portBytes - worstBytes) * 8 / interval
		limit := capacity*cfg.TargetUtil - otherRate
		if floor := capacity * floorFraction; limit < floor {
			limit = floor
		}
		a.installLimiter(worst, limit, maxDepth, true)
	}

	// 3. Propagate every live limiter upstream with max–min shares of
	// the contributing input ports. A SELF-installed limiter that
	// dropped packets this interval is still needed and refreshes
	// itself (a working limiter removes the very queue drops that
	// triggered it); requested limiters live only as long as the
	// downstream router keeps asking, so releases propagate down the
	// tree when the pressure ends.
	// Sorted: the body sends request packets upstream, so iteration
	// order is visible as simulated message order.
	liveAggs := make([]int, 0, len(a.limiters))
	for agg := range a.limiters {
		liveAggs = append(liveAggs, agg)
	}
	sort.Ints(liveAggs)
	for _, agg := range liveAggs {
		l := a.limiters[agg]
		if l.self && l.Drops > l.lastDrops {
			l.lastDrops = l.Drops
			l.expiresAt = now + expiryIntervals*interval
		}
		if now >= l.expiresAt {
			delete(a.limiters, agg)
			continue
		}
		if l.depth <= 0 {
			continue
		}
		acc, ok := a.acct[agg]
		if !ok || len(acc.perIn) == 0 {
			continue
		}
		ports := make([]*netsim.Port, 0, len(acc.perIn))
		demands := make([]float64, 0, len(acc.perIn))
		inPorts := make([]*netsim.Port, 0, len(acc.perIn))
		for pt := range acc.perIn {
			inPorts = append(inPorts, pt)
		}
		// Port index order fixes both the max–min share assignment
		// and the upstream request order.
		sort.Slice(inPorts, func(i, j int) bool { return inPorts[i].Index() < inPorts[j].Index() })
		for _, pt := range inPorts {
			up := pt.Peer().Node()
			if a.d.Agent(up.ID) == nil {
				continue // host or non-deploying neighbor
			}
			ports = append(ports, pt)
			demands = append(demands, acc.perIn[pt]*8/interval)
		}
		if len(ports) == 0 {
			continue
		}
		var shares []float64
		if cfg.WeightedShares && a.d.HostWeight != nil {
			weights := make([]float64, len(ports))
			for i, pt := range ports {
				weights[i] = a.d.HostWeight(pt)
			}
			shares = WeightedMaxMinShare(l.rate, demands, weights)
		} else {
			shares = MaxMinShare(l.rate, demands)
		}
		// Shares go upstream unscaled, the classic Pushback division:
		// a steady flow is capped at exactly its measured rate.
		for i, pt := range ports {
			share := shares[i]
			if demands[i] <= 0 || share <= 0 {
				continue
			}
			a.d.RequestsSent++
			pp := a.Node.NewPacket()
			*pp = netsim.Packet{
				Src:     a.Node.ID,
				TrueSrc: a.Node.ID,
				Dst:     pt.Peer().Node().ID,
				Size:    64,
				Type:    netsim.Control,
				Payload: &request{Agg: agg, Limit: share, Depth: l.depth - 1},
			}
			a.Node.Send(pp)
		}
	}

	// 4. Reset interval accounting.
	a.acct = map[int]*dstAcct{}
}
