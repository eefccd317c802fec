// Package mathx provides the small numerical toolkit the simulator is
// built on: a deterministic random source, descriptive statistics, linear
// regression, interpolation, and root finding. Everything is stdlib-only
// and allocation-conscious so it can sit inside inner simulation loops.
package mathx

import "math"

// RNG is a deterministic pseudo-random generator: splitmix64, a Weyl
// sequence advanced by SplitmixGamma whose every state is scrambled by
// Mix64. Every stochastic element of the simulator takes an explicit
// *RNG so experiments are reproducible bit-for-bit.
type RNG struct {
	state uint64
	// spare holds the second normal variate of the last polar-method
	// pair; spareOK marks it valid.
	spare   float64
	spareOK bool
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// SplitmixGamma is the splitmix64 stream increment (the golden-ratio
// constant).
const SplitmixGamma = 0x9E3779B97F4A7C15

// Reset rewinds the generator to the exact state NewRNG(seed) would
// produce, discarding any cached polar-method spare. Batched runners use
// it to reuse one allocation across many deterministic streams.
func (r *RNG) Reset(seed uint64) {
	r.state = seed
	r.spare = 0
	r.spareOK = false
}

// Mix64 is the splitmix64 avalanche finalizer: a bijective mix whose
// output bits all depend on all input bits. It is the shared scrambler
// behind the RNG stream, per-sample seed derivation, and hash-ring
// point spreading (raw FNV of short similar strings leaves high bits
// correlated).
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += SplitmixGamma
	return Mix64(r.state)
}

// Float64 returns a uniform variate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate, drawn with Marsaglia's polar
// method: a uniform point (u, v) in the unit disc gives two independent
// normals u·m and v·m with m = √(−2·ln s / s), s = u² + v². The second
// is cached and returned by the next call.
//
//advdiag:hotpath
func (r *RNG) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.spareOK = true
	return u * m
}

// NormScaled returns a normal variate with the given standard deviation.
func (r *RNG) NormScaled(sigma float64) float64 {
	return sigma * r.Norm()
}

// Split returns a new generator whose stream is independent of r's
// continued use; it is seeded from r's stream. Useful for giving each
// noise source in the analog chain its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
