package mathx

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random source (xoshiro256** core with
// a SplitMix64 seeder). Every stochastic component in this repository takes
// an explicit *RNG so whole experiments replay bit-identically from a seed —
// a prerequisite for the counterfactual replay experiments, where the same
// noise history must be re-run under a different intervention.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to expand the seed into four nonzero state words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new generator derived from this one; the parent advances.
// Use it to hand independent streams to sub-components.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// Uniformity matters here: donor sampling, permutation tests, and refuter
// shuffles all route through Intn, and the old `Uint64() % n` carried a
// modulo bias of up to n/2⁶⁴ toward small values for non-power-of-two n.
// This uses Lemire's multiply–shift rejection method (Lemire 2019,
// "Fast Random Integer Generation in an Interval"): exactly uniform, and
// the rejection loop almost never runs for the small n used here.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		// thresh = 2⁶⁴ mod n; draws with lo below it fall in the biased
		// remainder region and are rejected.
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a draw from N(mean, std²) via Box-Muller.
func (r *RNG) Normal(mean, std float64) float64 {
	// Polar-free Box-Muller; wastes the second deviate for simplicity.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + std*z
}

// Exponential returns a draw from Exp(rate).
func (r *RNG) Exponential(rate float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Poisson returns a draw from Poisson(lambda) using Knuth's method for small
// lambda and a normal approximation above 50.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
