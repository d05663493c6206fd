package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := k - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrFrac is the distance between the first and third quartile as a
// share of the median — the spread figure the acceptance check uses.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// percentileLadder are the tail percentiles the harness is willing to
// name, ascending, in per mille so the sample arithmetic is exact.
var percentileLadder = []int{900, 950, 990, 999}

// highestPercentile returns the highest ladder percentile that still
// has at least ten of n samples beyond it, or 50 when even p90 does
// not: below 100 samples a tail figure is one or two outliers, not a
// percentile, and the median is all the sample supports.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, pm := range percentileLadder {
		if n*(1000-pm)/1000 >= 10 {
			best = float64(pm) / 10
		}
	}
	return best
}

// supportedPercentile clamps a wanted percentile to what n samples
// support (see highestPercentile).
func supportedPercentile(want float64, n int) float64 {
	return math.Min(want, highestPercentile(n))
}

// refUnit is the host on which the normalised millisecond is a real
// one: a machine where the reference kernel takes exactly this long.
const refUnit = 100 * time.Millisecond

// normalise converts a measured host duration into normalised
// milliseconds: t scaled by how much slower (or faster) than refUnit
// the reference kernel ran around it. ref is the reference time that
// applies to the measurement.
func normalise(t, ref time.Duration) float64 {
	if ref <= 0 {
		return math.NaN()
	}
	return float64(t) / float64(time.Millisecond) * float64(refUnit) / float64(ref)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
