package analysis

import (
	"math"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

// hyperbolaGrid is the number of log-spaced half-saturation constants
// fitHyperbola scans before refining the best one; hyperbolaDecades is
// the scanned span on each side of the top standard.
const (
	hyperbolaGrid    = 41
	hyperbolaDecades = 2
)

// fitHyperbola least-squares fits y = a + b·C/(K + C), the
// Michaelis–Menten shape of an enzyme calibration, and returns the
// fitted responses at concs. For a fixed K the model is linear in a
// and b, so only K is searched: a log-spaced scan over K ∈ [10⁻²,
// 10²]·C_max, then a golden-section refinement between the best scan
// point's neighbours. It returns nil on degenerate input (fewer than
// four points, no concentration spread, a non-finite fit).
//
// Analyze selects the linear window on these denoised points: the
// window rule's worst residual is otherwise set by one noisy low
// standard rather than by the curve's bend.
func fitHyperbola(concs []phys.Concentration, ys []float64) []float64 {
	n := len(concs)
	if n < 4 || n != len(ys) || concs[n-1] <= 0 {
		return nil
	}
	cMax := float64(concs[n-1])
	g := make([]float64, n)
	// fit regresses y on g_i = C_i/(K + C_i) at K = cMax·10^u — the
	// model is linear in a and b for a fixed K — and returns the fit
	// with its residual sum of squares (+Inf when g has no spread).
	fit := func(u float64) (mathx.LinearFit, float64) {
		k := cMax * math.Pow(10, u)
		for i, c := range concs {
			g[i] = float64(c) / (k + float64(c))
		}
		lf, err := mathx.FitLinear(g, ys)
		if err != nil {
			return lf, math.Inf(1)
		}
		var r float64
		for _, e := range lf.Residuals {
			r += e * e
		}
		return lf, r
	}
	rss := func(u float64) float64 {
		_, r := fit(u)
		return r
	}
	const step = 2 * hyperbolaDecades / float64(hyperbolaGrid-1)
	best, bestR := 0, math.Inf(1)
	for j := 0; j < hyperbolaGrid; j++ {
		if r := rss(-hyperbolaDecades + float64(j)*step); r < bestR {
			best, bestR = j, r
		}
	}
	if math.IsInf(bestR, 1) {
		return nil
	}
	// Golden-section search on [u_best − step, u_best + step].
	lo := -hyperbolaDecades + float64(best-1)*step
	hi := lo + 2*step
	const invPhi = 0.6180339887498949
	x1, x2 := hi-invPhi*(hi-lo), lo+invPhi*(hi-lo)
	r1 := rss(x1)
	r2 := rss(x2)
	for it := 0; it < 40; it++ {
		if r1 <= r2 {
			hi, x2, r2 = x2, x1, r1
			x1 = hi - invPhi*(hi-lo)
			r1 = rss(x1)
		} else {
			lo, x1, r1 = x1, x2, r2
			x2 = lo + invPhi*(hi-lo)
			r2 = rss(x2)
		}
	}
	u := (lo + hi) / 2
	if rss(u) > bestR {
		u = -hyperbolaDecades + float64(best)*step
	}
	lf, _ := fit(u) // leaves g at the chosen K
	fitted := make([]float64, n)
	for i := range g {
		fitted[i] = lf.Eval(g[i])
		if math.IsNaN(fitted[i]) || math.IsInf(fitted[i], 0) {
			return nil
		}
	}
	return fitted
}
