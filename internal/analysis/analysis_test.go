package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

func TestLODEquation5(t *testing.T) {
	// LOD = 3σ_b / S, straight from the paper's eq. (5).
	blank := []float64{1.0, 1.2, 0.8, 1.1, 0.9}
	sigma := mathx.StdDev(blank)
	lod, err := LOD(blank, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(lod)-3*sigma/2.0) > 1e-12 {
		t.Fatalf("LOD = %g", float64(lod))
	}
	if _, err := LOD(blank[:2], 1); err != ErrInsufficientData {
		t.Fatal("two blanks must be insufficient")
	}
	if _, err := LOD(blank, 0); err == nil {
		t.Fatal("zero slope must fail")
	}
}

func TestLODNegativeSlope(t *testing.T) {
	blank := []float64{1, 2, 3, 2, 1}
	lod, err := LOD(blank, -4)
	if err != nil {
		t.Fatal(err)
	}
	if lod <= 0 {
		t.Fatal("LOD must be positive for negative slopes too")
	}
}

func TestAverageSensitivityEquation6(t *testing.T) {
	concs := []phys.Concentration{1, 2, 4}
	resp := []float64{10, 19, 42}
	s, err := AverageSensitivity(concs, resp)
	if err != nil {
		t.Fatal(err)
	}
	// ΔV/ΔC over the extremes: (42−10)/(4−1).
	if math.Abs(s-32.0/3.0) > 1e-12 {
		t.Fatalf("Savg = %g", s)
	}
	if _, err := AverageSensitivity(concs[:1], resp[:1]); err != ErrInsufficientData {
		t.Fatal("single point insufficient")
	}
	if _, err := AverageSensitivity([]phys.Concentration{2, 2}, []float64{1, 2}); err == nil {
		t.Fatal("zero span must fail")
	}
}

func TestMaxNonlinearityEquation7(t *testing.T) {
	// A perfectly linear set has zero NLmax.
	concs := []phys.Concentration{0, 1, 2, 3}
	lin := []float64{1, 3, 5, 7}
	nl, err := MaxNonlinearity(concs, lin)
	if err != nil {
		t.Fatal(err)
	}
	if nl > 1e-12 {
		t.Fatalf("NLmax = %g on a line", nl)
	}
	// Bend the middle: NLmax picks up the deviation.
	bent := []float64{1, 3.4, 5, 7}
	nl2, _ := MaxNonlinearity(concs, bent)
	if nl2 < 0.2 {
		t.Fatalf("NLmax = %g, want ≥0.2", nl2)
	}
}

func TestLinearRangeOnMichaelisMenten(t *testing.T) {
	// Noise-free MM curve with Km = 2.81×2 mM: the detector must end
	// the range near 2 mM.
	km := 2.81 * 2.0
	var concs []phys.Concentration
	var resp []float64
	for c := 0.25; c <= 6.0; c += 0.25 {
		concs = append(concs, phys.Concentration(c))
		resp = append(resp, c/(km+c))
	}
	lo, hi, fit, err := LinearRange(concs, resp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(lo) != 0.25 {
		t.Fatalf("lo = %v, want grid start", lo)
	}
	if float64(hi) < 1.5 || float64(hi) > 3.0 {
		t.Fatalf("hi = %v, want ≈2", hi)
	}
	if fit.Slope <= 0 {
		t.Fatal("slope must be positive")
	}
}

func TestLinearRangeFloor(t *testing.T) {
	var concs []phys.Concentration
	var resp []float64
	for c := 0.25; c <= 4.0; c += 0.25 {
		concs = append(concs, phys.Concentration(c))
		resp = append(resp, c) // perfectly linear
	}
	lo, hi, _, err := LinearRange(concs, resp, phys.Concentration(1.1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if float64(lo) != 1.1 {
		t.Fatalf("floor must bound the reported low end: lo = %v", lo)
	}
	if float64(hi) != 4.0 {
		t.Fatalf("hi = %v", hi)
	}
	// A floor above every point must fail.
	if _, _, _, err := LinearRange(concs, resp, phys.Concentration(10), 0); err == nil {
		t.Fatal("floor above the data must fail")
	}
}

func TestLinearRangeUnsorted(t *testing.T) {
	concs := []phys.Concentration{2, 1, 3, 4}
	resp := []float64{2, 1, 3, 4}
	if _, _, _, err := LinearRange(concs, resp, 0, 0); err == nil {
		t.Fatal("unsorted concentrations must fail")
	}
}

func TestCalibrateAndAnalyze(t *testing.T) {
	// Synthetic instrument: linear response 2 µA/mM with Gaussian blank
	// noise. The report must recover the slope and an eq.-5 LOD.
	rng := mathx.NewRNG(31)
	slope := 2e-6
	sigma := 0.05e-6
	fn := func(c phys.Concentration) (float64, error) {
		return slope*float64(c) + rng.NormScaled(sigma), nil
	}
	var concs []phys.Concentration
	for c := 0.2; c <= 3.0; c += 0.2 {
		concs = append(concs, phys.Concentration(c))
	}
	cal, err := Calibrate(concs, 12, 8, "A", fn)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Replicates != 8 || len(cal.Blanks) != 12 {
		t.Fatalf("calibration bookkeeping: %+v", cal)
	}
	rep, err := cal.Analyze(phys.SquareMillimetres(0.23), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Slope-slope)/slope > 0.05 {
		t.Fatalf("slope %g, want %g", rep.Slope, slope)
	}
	wantLOD := 3 * sigma / slope
	if math.Abs(float64(rep.LOD)-wantLOD)/wantLOD > 0.6 {
		t.Fatalf("LOD %g, want ≈%g (within the σ-estimate scatter)", float64(rep.LOD), wantLOD)
	}
	if rep.R2 < 0.99 {
		t.Fatalf("R² = %g", rep.R2)
	}
}

func TestCalibrateValidation(t *testing.T) {
	fn := func(phys.Concentration) (float64, error) { return 0, nil }
	if _, err := Calibrate([]phys.Concentration{1, 2}, 5, 1, "A", fn); err != ErrInsufficientData {
		t.Fatal("three concentrations must be insufficient")
	}
}

// Property: LOD scales inversely with slope.
func TestLODSlopeScalingProperty(t *testing.T) {
	blank := []float64{0.1, 0.2, 0.15, 0.12, 0.18}
	f := func(mult uint8) bool {
		m := float64(mult%100) + 1
		l1, err1 := LOD(blank, 1)
		l2, err2 := LOD(blank, m)
		if err1 != nil || err2 != nil {
			return false
		}
		return mathx.ApproxEqual(float64(l1)/float64(l2), m, 1e-9, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivity(t *testing.T) {
	s, err := NewSelectivity("glucose", "lactate", 2.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Ratio-200) > 1e-9 {
		t.Fatalf("ratio %g", s.Ratio)
	}
	// Interference error: S_int·C_int / S_tgt·C_tgt.
	if got := s.InterferenceError(1, 0.5); math.Abs(got-0.0025) > 1e-12 {
		t.Fatalf("interference error %g", got)
	}
	// Fully selective.
	full, err := NewSelectivity("a", "b", 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(full.Ratio, 1) {
		t.Fatal("zero interferent slope must be fully selective")
	}
	if _, err := NewSelectivity("a", "b", 0, 1); err == nil {
		t.Fatal("zero target slope must fail")
	}
}

// TestLinearWindowRobustToPointNoise: on a Michaelis–Menten calibration
// whose replicate means carry noise, the window selected on the
// hyperbola-denoised curve stays within one grid step of the
// noise-free top (±1 mM) on nearly every noise stream, and more often
// than the same rule applied to the raw points, which the noisiest low
// standard can end early.
func TestLinearWindowRobustToPointNoise(t *testing.T) {
	const (
		km     = 12.0 // mM
		seeds  = 200
		sigma  = 0.003 // point noise, in units of the saturation current
		blankS = 0.002
		band   = 1.0 // mM
	)
	var concs []phys.Concentration
	for c := 0.25; c <= 6.0; c += 0.25 {
		concs = append(concs, phys.Concentration(c))
	}
	cal := func(seed uint64, noise float64) *Calibration {
		rng := mathx.NewRNG(seed)
		c := &Calibration{Concs: concs, Replicates: 1}
		for i := 0; i < 12; i++ {
			c.Blanks = append(c.Blanks, rng.NormScaled(blankS))
		}
		for _, x := range concs {
			c.Responses = append(c.Responses, float64(x)/(km+float64(x))+rng.NormScaled(noise))
		}
		return c
	}
	clean, err := cal(1, 0).Analyze(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := float64(clean.LinearHi)
	inBand, rawInBand := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		c := cal(seed, sigma)
		rep, err := c.Analyze(0, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(float64(rep.LinearHi)-top) <= band {
			inBand++
		}
		lod, _ := LOD(c.Blanks, rep.Slope)
		if _, hi, _, err := LinearRange(c.Concs, c.Responses, lod, blankS); err == nil && math.Abs(float64(hi)-top) <= band {
			rawInBand++
		}
	}
	t.Logf("noise-free top %g mM; within %g mM on %d of %d seeds (raw-point rule: %d)", top, band, inBand, seeds, rawInBand)
	if inBand < seeds*98/100 || inBand <= rawInBand {
		t.Fatalf("top within %g mM of %g mM on %d of %d seeds (raw-point rule: %d), want ≥ 98 %% and more than the raw rule",
			band, top, inBand, seeds, rawInBand)
	}
}

// TestFitHyperbola: a noise-free Michaelis–Menten curve with an offset
// is reproduced, and degenerate input reports no fit.
func TestFitHyperbola(t *testing.T) {
	var concs []phys.Concentration
	var ys []float64
	for c := 0.5; c <= 8; c += 0.5 {
		concs = append(concs, phys.Concentration(c))
		ys = append(ys, 0.1+2*c/(3+c))
	}
	fitted := fitHyperbola(concs, ys)
	if fitted == nil {
		t.Fatal("no fit on a clean hyperbola")
	}
	for i := range ys {
		if math.Abs(fitted[i]-ys[i]) > 1e-6 {
			t.Fatalf("point %d: fitted %g, want %g", i, fitted[i], ys[i])
		}
	}
	if fitHyperbola(concs[:3], ys[:3]) != nil {
		t.Fatal("three points must not fit")
	}
	if fitHyperbola([]phys.Concentration{0, 0, 0, 0}, []float64{1, 2, 3, 4}) != nil {
		t.Fatal("zero concentration spread must not fit")
	}
}
