package analysis

import (
	"fmt"
	"math"
	"sort"

	"advdiag/internal/mathx"
	"advdiag/internal/phys"
)

// MeasureFunc performs one measurement at the given bulk concentration
// and returns the system response (recovered current in amperes, or
// recorded voltage in volts — any consistent unit works; figures of
// merit scale through ResponseScale).
type MeasureFunc func(c phys.Concentration) (float64, error)

// Calibration is a measured calibration data set: repeated blanks plus
// replicate-averaged responses per concentration.
type Calibration struct {
	// Concs are the measured concentrations, sorted ascending.
	Concs []phys.Concentration
	// Responses are the corresponding system responses (mean over
	// replicates).
	Responses []float64
	// Blanks are repeated zero-concentration responses (individual
	// runs, NOT averaged — eq. 5 needs the single-run blank scatter).
	Blanks []float64
	// Replicates is the number of runs averaged per concentration.
	Replicates int
	// Unit labels the response unit ("A" or "V").
	Unit string
}

// Calibrate runs fn over the blank (nBlanks single runs) and each
// concentration (reps replicate runs, averaged) — the standard wet-lab
// calibration procedure behind a Table III row.
func Calibrate(concs []phys.Concentration, nBlanks, reps int, unit string, fn MeasureFunc) (*Calibration, error) {
	if len(concs) < 4 {
		return nil, ErrInsufficientData
	}
	if nBlanks < 3 {
		nBlanks = 3
	}
	if reps < 1 {
		reps = 1
	}
	cal := &Calibration{Unit: unit, Replicates: reps}
	for i := 0; i < nBlanks; i++ {
		b, err := fn(0)
		if err != nil {
			return nil, fmt.Errorf("analysis: blank %d: %w", i, err)
		}
		cal.Blanks = append(cal.Blanks, b)
	}
	sorted := append([]phys.Concentration(nil), concs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, c := range sorted {
		sum := 0.0
		for r := 0; r < reps; r++ {
			v, err := fn(c)
			if err != nil {
				return nil, fmt.Errorf("analysis: point %v: %w", c, err)
			}
			sum += v
		}
		cal.Concs = append(cal.Concs, c)
		cal.Responses = append(cal.Responses, sum/float64(reps))
	}
	return cal, nil
}

// Report is the full figure-of-merit summary of one calibration — the
// row format of the paper's Table III.
type Report struct {
	// Slope is the calibration slope in response units per mol/m³ over
	// the detected linear range.
	Slope float64
	// Sensitivity is the area-normalized slope (valid when responses
	// are currents); the paper's µA/(mM·cm²) unit.
	Sensitivity phys.Sensitivity
	// LOD is the eq. (5) detection limit.
	LOD phys.Concentration
	// LinearLo and LinearHi bound the detected linear range.
	LinearLo, LinearHi phys.Concentration
	// NLmax is the eq. (7) maximum nonlinearity over the linear range,
	// in response units.
	NLmax float64
	// R2 is the linear-fit quality over the linear range.
	R2 float64
	// BlankMean and BlankStd summarize the blank (V_b and σ_b of eq. 5).
	BlankMean, BlankStd float64
}

// Analyze extracts the report from a calibration. area is the electrode
// area (for the area-normalized sensitivity); responseToCurrent scales
// responses to amperes (1 when responses already are currents).
func (cal *Calibration) Analyze(area phys.Area, responseToCurrent float64) (Report, error) {
	if len(cal.Concs) < 4 || len(cal.Blanks) < 3 {
		return Report{}, ErrInsufficientData
	}
	var rep Report
	rep.BlankMean = mathx.Mean(cal.Blanks)
	rep.BlankStd = mathx.StdDev(cal.Blanks)

	// Preliminary slope from the full data set (blank-anchored) to set
	// the LOD floor for the linear-range search.
	prelim, err := AverageSensitivity(cal.Concs, cal.Responses)
	if err != nil {
		return Report{}, err
	}
	lodPrelim, err := LOD(cal.Blanks, prelim)
	if err != nil {
		return Report{}, err
	}

	pointSigma := 0.0
	if cal.Replicates > 0 {
		pointSigma = rep.BlankStd / math.Sqrt(float64(cal.Replicates))
	}
	// The window is selected on the calibration curve denoised by a
	// Michaelis–Menten fit, so one noisy standard cannot end it early;
	// degenerate fits (nil) fall back to the raw points.
	denoised := fitHyperbola(cal.Concs, cal.Responses)
	lo, hi, fit, err := cal.linearWindow(denoised, lodPrelim, pointSigma)
	if err != nil {
		return Report{}, err
	}
	// The preliminary slope is biased low by saturation (it spans the
	// whole curve), which overstates the LOD floor. Refine once: redo
	// the window search with the floor from the linear-window slope.
	if lodFinal, err := LOD(cal.Blanks, fit.Slope); err == nil && lodFinal < lodPrelim {
		if lo2, hi2, fit2, err := cal.linearWindow(denoised, lodFinal, pointSigma); err == nil {
			lo, hi, fit = lo2, hi2, fit2
		}
	}
	rep.LinearLo, rep.LinearHi = lo, hi
	rep.Slope = fit.Slope
	rep.R2 = fit.R2
	if area > 0 {
		rep.Sensitivity = phys.Sensitivity(fit.Slope * responseToCurrent / float64(area))
	}

	// Final LOD from the linear-range slope.
	lod, err := LOD(cal.Blanks, fit.Slope)
	if err != nil {
		return Report{}, err
	}
	rep.LOD = lod

	// NLmax over the linear window (eq. 7).
	var cs []phys.Concentration
	var ys []float64
	for i, c := range cal.Concs {
		if c >= lo && c <= hi {
			cs = append(cs, c)
			ys = append(ys, cal.Responses[i])
		}
	}
	if nl, err := MaxNonlinearity(cs, ys); err == nil {
		rep.NLmax = nl
	}
	return rep, nil
}

// linearWindow selects the linear window with LinearRange on the
// denoised responses and fits the raw responses over it, so the slope
// and R² always describe the measured points. The denoised curve
// carries no point scatter, so its residual budget is the tolerance
// alone; pointSigma widens the budget only when there is no denoised
// curve, or none that yields a window, and the raw responses are used.
func (cal *Calibration) linearWindow(denoised []float64, floor phys.Concentration, pointSigma float64) (lo, hi phys.Concentration, fit mathx.LinearFit, err error) {
	if denoised == nil {
		return LinearRange(cal.Concs, cal.Responses, floor, pointSigma)
	}
	lo, hi, _, err = LinearRange(cal.Concs, denoised, floor, 0)
	if err != nil {
		return LinearRange(cal.Concs, cal.Responses, floor, pointSigma)
	}
	top := sort.Search(len(cal.Concs), func(i int) bool { return cal.Concs[i] > hi })
	xs := make([]float64, top)
	for i := range xs {
		xs[i] = float64(cal.Concs[i])
	}
	fit, err = mathx.FitLinear(xs, cal.Responses[:top])
	return lo, hi, fit, err
}

// String renders the report like a Table III row.
func (r Report) String() string {
	return fmt.Sprintf("S=%.3g µA/(mM·cm²)  LOD=%.3g µM  linear %.3g–%.3g mM  NLmax=%.2g  R²=%.4f",
		r.Sensitivity.Paper(), r.LOD.MicroMolar(), r.LinearLo.MilliMolar(), r.LinearHi.MilliMolar(), r.NLmax, r.R2)
}
