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
// produce. Batched runners use it to reuse one allocation across many
// deterministic streams.
func (r *RNG) Reset(seed uint64) {
	r.state = seed
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

// Norm returns a standard normal variate, drawn with the ziggurat
// method of Marsaglia & Tsang (2000) over 128 layers in Doornik's
// (2005) formulation. Each attempt consumes one Uint64: the low seven
// bits pick the layer and the top 53 bits, disjoint from them, give
// the signed uniform, so the layer and the value are independent (the
// original method took both from one 32-bit word, which correlates
// them). About 99% of draws return from the first rectangle test;
// the rest take a wedge test (one exp) or the tail (two logs per try).
//
//advdiag:hotpath
func (r *RNG) Norm() float64 {
	for {
		i, u := zigSplit(r.Uint64())
		x := u * zigX[i]
		if math.Abs(u) < zigRatio[i] {
			return x
		}
		if i == 0 {
			return r.normTail(u < 0)
		}
		// Wedge between layers i and i+1: accept under the density.
		y := zigF[i] + r.Float64()*(zigF[i+1]-zigF[i])
		if y < math.Exp(-0.5*x*x) {
			return x
		}
	}
}

// zigSplit splits one draw into a layer index (the low seven bits) and
// a signed uniform in [−1, 1) (the top 53 bits, as a signed integer
// scaled by 2⁻⁵²).
func zigSplit(bits uint64) (layer uint64, u float64) {
	return bits & (zigLayers - 1), float64(int64(bits)>>11) * 0x1p-52
}

// normTail draws from the normal tail beyond zigTail (Marsaglia 1964),
// negated when neg is set.
func (r *RNG) normTail(neg bool) float64 {
	for {
		// 1 − Float64() lies in (0, 1], so both logs are finite.
		x := -math.Log(1-r.Float64()) / zigTail
		y := -math.Log(1 - r.Float64())
		if 2*y >= x*x {
			if neg {
				return -(zigTail + x)
			}
			return zigTail + x
		}
	}
}

// zigLayers is the number of ziggurat layers (a power of two: the
// layer index is a bit mask).
const zigLayers = 128

// zigTail is the right edge r of the 128-layer ziggurat's base layer
// (Marsaglia & Tsang 2000): the r for which the layer recurrence below
// closes at the density's peak.
const zigTail = 3.442619855899

// Ziggurat tables, computed at start-up from the closed form. Every
// layer has area v, the base layer's: the strip r·f(r) plus the tail
// ∫_r^∞ f = √(π/2)·erfc(r/√2), with f(x) = exp(−x²/2).
//   - zigX[i] is the right edge of layer i: zigX[0] = v/f(r) (the base
//     layer's width with the tail folded in), zigX[1] = r,
//     f(zigX[i+1]) = v/zigX[i] + f(zigX[i]), and zigX[128] = 0.
//   - zigRatio[i] = zigX[i+1]/zigX[i]: below it, a point of layer i
//     lies under the density for certain.
//   - zigF[i] = f(zigX[i]).
var (
	zigX     [zigLayers + 1]float64
	zigRatio [zigLayers]float64
	zigF     [zigLayers + 1]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	v := zigTail*f(zigTail) + math.Sqrt(math.Pi/2)*math.Erfc(zigTail/math.Sqrt2)
	zigX[0] = v / f(zigTail)
	zigX[1] = zigTail
	for i := 2; i < zigLayers; i++ {
		zigX[i] = math.Sqrt(-2 * math.Log(v/zigX[i-1]+f(zigX[i-1])))
	}
	zigX[zigLayers] = 0
	for i := range zigRatio {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
	for i := range zigF {
		zigF[i] = f(zigX[i])
	}
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
