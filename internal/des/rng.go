package des

import "math/rand"

// RNG wraps math/rand with a fixed seed and a few distributions the
// simulator needs. Every stochastic component of a scenario should
// draw from one RNG derived from the scenario seed, so that a run is
// reproducible end to end.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator. Children produced with
// distinct labels have uncorrelated streams; the parent stream is
// advanced by one draw.
func (g *RNG) Split(label int64) *RNG {
	return NewRNG(g.r.Int63() ^ (label * 0x5851F42D4C957F2D))
}

// DeriveSeed mixes a stable label into a base seed with the splitmix64
// finalizer, yielding an independent child seed. It is a pure function
// of (base, label): the result does not depend on how many other
// children exist or in which order they are derived, so seeds keyed by
// a stable model label (a part index, an AS number, a retry attempt)
// are identical across partitionings of the same scenario. The
// sharded runners' per-part streams and the scenario runner's retry
// seeds (scenario.AttemptSeed) use it.
func DeriveSeed(base, label int64) int64 {
	mix := uint64(base) ^ (uint64(label) * 0xbf58476d1ce4e5b9)
	mix ^= mix >> 27
	mix *= 0x94d049bb133111eb
	return int64(mix)
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exp returns an exponential draw with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly chosen element of xs. It panics on an
// empty slice, mirroring slice indexing semantics.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

// Sample returns k distinct elements of xs chosen uniformly at random,
// in random order. It panics if k > len(xs).
func Sample[T any](g *RNG, xs []T, k int) []T {
	if k > len(xs) {
		panic("des: sample larger than population")
	}
	idx := g.Perm(len(xs))[:k]
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
