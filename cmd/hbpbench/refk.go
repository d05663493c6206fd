package main

import "time"

// The reference kernel: a fixed amount of standard-library-only work
// whose duration tracks how fast this host is right now. Every
// host-time figure the benchmark gates is divided
// by it, so a machine that slows down for a while (a busy neighbour on
// a shared VM) slows the numerator and the denominator together.
//
// It has two halves, because the host's slow spells do not hit all
// code alike — on the builder's VM pure arithmetic barely noticed
// them, cache-resident pointer work slowed by a quarter and
// cache-missing work by half — and the simulator sits between the
// last two:
//
//   - the event-queue "hold" operation: a binary heap of refHeapSize
//     float64 keys (512 KiB, cache-resident), refHolds times pop the
//     minimum and push it back a pseudo-random distance later;
//   - hash-map churn: refMapOps read-modify-writes on pseudo-random
//     keys of a map of up to refMapKeys entries (cache-missing).
//
// Keys come from a fixed LCG, so every call does bit-identical work.
// Measured against the default tree scenario over two noisy sessions,
// run time tracked the sum of the two halves with exponent 0.9–1.0,
// against 1.03–1.4 for the heap alone and 0.6 for the map alone.
//
// A change that claims a performance gain must not edit this file:
// it is the ruler, not the thing measured.
const (
	refHeapSize = 1 << 16
	refHolds    = 400_000
	refMapKeys  = 1 << 16
	refMapOps   = 1_500_000
)

// refSink keeps the kernel's results observable so the compiler cannot
// drop the loops.
var refSink float64

type refLCG uint64

func (x *refLCG) next() uint64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return uint64(*x)
}

// twoThreadShare is the parallel share of every workload that runs on
// two threads. Against one copy alone, over 70 fresh processes, it cut
// the standard deviation of internet-scale's normalised run time from
// 3.5 % to 2.8 % and left forest-sharded's (3.1 % and 3.3 %) and, over
// 26, fleet-saturated's (1.9 % and 2.0 %) where they were — on a day on
// which the processors were shared for three minutes in two hours. It
// is there for those minutes.
const twoThreadShare = 0.4

// refk reads the reference kernel: one copy alone and, for a workload
// that keeps both processors busy part of the time, benchProcs copies
// side by side (timed until the slower ends) as well, mixed by the
// workload's parallel share:
//
//	(1 − parallel) × one copy + parallel × copies side by side
//
// The two readings part ways when the host stops giving this VM two
// full processors: for minutes at a time both virtual processors share
// one physical core, where two copies take twice as long while a
// single thread is not slowed at all. A sharded scenario or the
// saturated service then slows by some share of that, and neither
// reading alone follows it: scored against two copies the tree
// scenario's normalised time halved while its raw time had not moved,
// and pinned to one processor (which imitates that state) a two-shard
// forest run took 17 % longer while one copy did not change.
func refk(parallel float64) time.Duration {
	one := refCopies(1)
	if parallel == 0 {
		return one
	}
	side := refCopies(benchProcs)
	return time.Duration((1-parallel)*float64(one) + parallel*float64(side))
}

// refCopies runs that many copies of the kernel side by side and
// returns how long the slowest took.
func refCopies(copies int) time.Duration {
	start := time.Now()
	sums := make(chan float64, copies) // one send per copy
	for i := 0; i < copies; i++ {
		go func() { sums <- refHeap() + refMap() }()
	}
	for i := 0; i < copies; i++ {
		refSink += <-sums
	}
	return time.Since(start)
}

func refHeap() float64 {
	h := make([]float64, 0, refHeapSize)
	x := refLCG(0x9E3779B97F4A7C15)
	key := func() float64 { return float64(x.next()>>11) / (1 << 53) }
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			if r := l + 1; r < len(h) && h[r] < h[l] {
				l = r
			}
			if h[i] <= h[l] {
				return
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	for i := 0; i < refHeapSize; i++ {
		h = append(h, key())
		up(i)
	}
	for k := 0; k < refHolds; k++ {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		down(0)
		h = append(h, top+key())
		up(last)
	}
	return h[0]
}

func refMap() float64 {
	m := make(map[uint64]uint64, refMapKeys)
	x := refLCG(0xD1B54A32D192ED03)
	for i := 0; i < refMapOps; i++ {
		m[x.next()>>48] += uint64(i)
	}
	return float64(len(m))
}
