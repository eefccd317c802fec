// Package analog simulates the electronic acquisition chain of the
// platform (paper Fig. 1 and Fig. 2): the potentiostat control loop,
// the transimpedance current readout, fixed and sweep voltage
// generators, the analog multiplexer, the ADC, and the noise phenomena
// (thermal and flicker) with their countermeasures (chopper
// stabilization and correlated double sampling).
package analog

import (
	"math"
	"math/bits"

	"advdiag/internal/mathx"
)

// WhiteNoise produces independent Gaussian samples — thermal (Johnson)
// noise folded into the sampling bandwidth.
type WhiteNoise struct {
	// Sigma is the per-sample standard deviation.
	Sigma float64
	rng   *mathx.RNG
}

// NewWhiteNoise returns a white source with per-sample deviation sigma.
func NewWhiteNoise(sigma float64, rng *mathx.RNG) *WhiteNoise {
	return &WhiteNoise{Sigma: sigma, rng: rng}
}

// Sample returns the next noise value.
func (w *WhiteNoise) Sample() float64 {
	if w.Sigma <= 0 {
		return 0
	}
	return w.rng.NormScaled(w.Sigma)
}

// FlickerNoise produces 1/f ("pink") noise via the Voss–McCartney
// multirate algorithm: rows of Gaussian values updated at halving rates
// sum to a spectrum within a fraction of a dB of 1/f over ~Rows octaves.
// Flicker noise dominates the low-frequency band where the biosensor
// signals live (paper §II-C), which is why chopping and CDS matter.
type FlickerNoise struct {
	// Sigma is the per-sample standard deviation of the summed output.
	Sigma float64
	rows  []float64
	count uint64
	// sum is the running total of rows. Each sample swaps one row, so
	// it is kept by adding the new value and subtracting the old, and
	// recomputed exactly every flickerResync samples so rounding error
	// cannot accumulate.
	sum float64
	// norm is 1/√rows: the sum of R unit rows has variance R.
	norm float64
	rng  *mathx.RNG
}

// flickerResync is the period, in samples, of FlickerNoise's exact
// re-summation (a power of two: the test is a bit mask).
const flickerResync = 1 << 10

// NewFlickerNoise returns a pink source with per-sample deviation sigma
// spread over the given number of octaves (rows); 16 covers any
// experiment length used here.
func NewFlickerNoise(sigma float64, rows int, rng *mathx.RNG) *FlickerNoise {
	if rows < 1 {
		rows = 16
	}
	f := &FlickerNoise{Sigma: sigma, rows: make([]float64, rows), norm: 1 / math.Sqrt(float64(rows)), rng: rng}
	f.fill()
	return f
}

// fill draws every row afresh, restarts the update schedule and
// re-sums.
func (f *FlickerNoise) fill() {
	f.count = 0
	for i := range f.rows {
		f.rows[i] = f.rng.Norm()
	}
	f.resum()
}

// resum recomputes the running sum exactly.
func (f *FlickerNoise) resum() {
	f.sum = 0
	for _, v := range f.rows {
		f.sum += v
	}
}

// Sample returns the next noise value.
//
//advdiag:hotpath
func (f *FlickerNoise) Sample() float64 {
	if f.Sigma <= 0 {
		return 0
	}
	f.count++
	// Update the row whose bit flipped (number of trailing zeros).
	row := min(bits.TrailingZeros64(f.count), len(f.rows)-1)
	v := f.rng.Norm()
	old := f.rows[row]
	f.rows[row] = v
	if f.count&(flickerResync-1) == 0 {
		f.resum()
	} else {
		f.sum += v - old
	}
	return f.Sigma * f.sum * f.norm
}

// NoiseModel bundles the input-referred current noise of a readout
// channel.
type NoiseModel struct {
	white   *WhiteNoise
	flicker *FlickerNoise
	// flickerScale attenuates the flicker component; chopper
	// stabilization sets it well below one.
	flickerScale float64
}

// NewNoiseModel builds a channel noise model with the given per-sample
// white and flicker standard deviations (amperes, input-referred).
func NewNoiseModel(whiteSigma, flickerSigma float64, rng *mathx.RNG) *NoiseModel {
	return &NoiseModel{
		white:        NewWhiteNoise(whiteSigma, rng.Split()),
		flicker:      NewFlickerNoise(flickerSigma, 16, rng.Split()),
		flickerScale: 1,
	}
}

// Rebind re-derives the model's noise streams from rng exactly as
// NewNoiseModel would — same Split draws in the same order, same
// flicker row initialization — but into the existing allocations. After
// Rebind the model's future samples are bit-identical to those of a
// freshly constructed model handed the same rng state. The chopper
// setting is preserved.
func (n *NoiseModel) Rebind(rng *mathx.RNG) {
	n.white.rng.Reset(rng.Uint64())
	n.flicker.rng.Reset(rng.Uint64())
	n.flicker.fill()
}

// ChopperSuppression is the flicker-noise attenuation a chopper
// amplifier achieves by translating the signal above the 1/f corner
// before amplification (paper §II-C).
const ChopperSuppression = 20.0

// EnableChopper turns chopper stabilization on or off.
func (n *NoiseModel) EnableChopper(on bool) {
	if on {
		n.flickerScale = 1 / ChopperSuppression
	} else {
		n.flickerScale = 1
	}
}

// Sample returns the next input-referred noise current.
//
//advdiag:hotpath
func (n *NoiseModel) Sample() float64 {
	if n == nil {
		return 0
	}
	return n.white.Sample() + n.flickerScale*n.flicker.Sample()
}
