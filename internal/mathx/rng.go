// Package mathx provides the small numeric toolkit the V10 simulator and the
// clustering-based collocation mechanism depend on: a deterministic RNG,
// descriptive statistics, dense matrices, a Jacobi eigensolver, PCA, and
// K-Means++. Everything is stdlib-only and deterministic given a seed so that
// simulations and experiments are exactly reproducible.
package mathx

import "math"

// RNG is a deterministic splitmix64-based pseudo random number generator.
// The zero value is not usable; construct with NewRNG. RNG is not safe for
// concurrent use; give each goroutine its own (use Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams on every platform.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Split derives an independent generator from r's stream, advancing r.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	// float64(...) rounds the product, so no architecture fuses a multiply-add.
	return lo + float64((hi-lo)*r.Float64())
}

// Norm returns a standard normal sample via Box-Muller.
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a sample whose logarithm is normal with the given
// location mu and scale sigma (both of the underlying normal).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// LogNormalMean returns a lognormal sample with the given mean and the given
// coefficient of variation cv (stddev/mean). cv == 0 returns mean exactly.
func (r *RNG) LogNormalMean(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return r.LogNormal(mu, math.Sqrt(sigma2))
}
