// Package experiments implements the reproduction of every table and
// figure in the paper's evaluation, plus the ablation studies DESIGN.md
// calls out (E1–E12). Each experiment returns a structured result with
// a text rendering; the root bench harness and cmd/experiments both run
// these, so EXPERIMENTS.md numbers come from exactly this code.
package experiments

import (
	"fmt"
	"strings"

	"advdiag"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

// Row is one paper-vs-measured comparison line.
type Row struct {
	// Label identifies the row (probe, target, configuration).
	Label string
	// Paper is the published value(s).
	Paper string
	// Measured is the reproduced value(s).
	Measured string
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment id from DESIGN.md ("E1"...).
	ID string
	// Title names the paper artifact ("Table I — ...").
	Title string
	// Rows are the comparison lines.
	Rows []Row
	// Notes records deviations and their explanations.
	Notes []string
	// Metrics exposes headline numbers for benchmarks.
	Metrics map[string]float64
}

// String renders the result as a report section.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	labelW, paperW := 10, 10
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
		if len(row.Paper) > paperW {
			paperW = len(row.Paper)
		}
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s  paper: %-*s  measured: %s\n", labelW, row.Label, paperW, row.Paper, row.Measured)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// TableI reproduces Table I: for each oxidase, scan the applied
// potential and report the lowest potential reaching 95 % of the
// H₂O₂-oxidation plateau; the paper's recommended potentials should
// come back out.
func TableI() (*Result, error) {
	res := &Result{ID: "E1", Title: "Table I — oxidase probes and applied potentials"}
	for _, o := range enzyme.Oxidases() {
		got := o.RecommendedPotential(phys.MilliVolts(10))
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("%s (%s)", o.Name, o.Target.Name),
			Paper:    fmt.Sprintf("%+.0f mV", o.Applied.MilliVolts()),
			Measured: fmt.Sprintf("%+.0f mV", got.MilliVolts()),
		})
		res.metric(o.Target.Name+"_mV", got.MilliVolts())
	}
	res.Notes = append(res.Notes,
		"measured = lowest potential reaching 95 % of the oxidation plateau, scanned in 10 mV steps")
	return res, nil
}

// TableII reproduces Table II: run a cyclic voltammogram for every
// isoform/substrate pair at 20 mV/s and report the detected cathodic
// peak potential.
func TableII() (*Result, error) {
	res := &Result{ID: "E2", Title: "Table II — CYP targets and reduction potentials"}
	for _, c := range enzyme.CYPs() {
		for _, bind := range c.Bindings {
			sensor, err := advdiag.NewSensor(bind.Substrate.Name, advdiag.WithProbe(c.Isoform), advdiag.WithSeed(7))
			if err != nil {
				return nil, err
			}
			// Mid-linear-range sample of the one substrate.
			conc := float64(bind.Perf.LinearLo+bind.Perf.LinearHi) / 2
			vg, err := sensor.RunVoltammetry(map[string]float64{bind.Substrate.Name: conc})
			if err != nil {
				return nil, err
			}
			measured := "no peak detected"
			for _, pk := range vg.Peaks {
				if abs(pk.PotentialMV-bind.PeakPotential.MilliVolts()) < 80 {
					measured = fmt.Sprintf("%+.0f mV (h=%.3g µA)", pk.PotentialMV, pk.HeightMicroAmps)
					res.metric(c.Isoform+"/"+bind.Substrate.Name+"_mV", pk.PotentialMV)
					break
				}
			}
			res.Rows = append(res.Rows, Row{
				Label:    fmt.Sprintf("%s / %s", c.Isoform, bind.Substrate.Name),
				Paper:    fmt.Sprintf("%+.0f mV", bind.PeakPotential.MilliVolts()),
				Measured: measured,
			})
		}
	}
	res.Notes = append(res.Notes,
		"CV at 20 mV/s on the cited electrode construction; peak located on the cathodic branch",
		"CYP2B6 senses bupropion and lidocaine at the same potential; each is scanned alone here")
	return res, nil
}

// tableIIIGrids holds the calibration grids per target (uniform, spanning
// below and above the published linear range so the detector has
// material on both sides).
func tableIIIGrids() map[string][]float64 {
	return map[string][]float64{
		"glucose":       seq(0.25, 6.0, 0.25),
		"lactate":       seq(0.25, 4.0, 0.25),
		"glutamate":     seq(0.25, 3.25, 0.25),
		"benzphetamine": seq(0.1, 2.0, 0.1),
		"aminopyrine":   seq(0.5, 12, 0.5),
		"cholesterol":   seq(0.01, 0.13, 0.005),
	}
}

func seq(lo, hi, step float64) []float64 {
	var out []float64
	for c := lo; c <= hi+1e-9; c += step {
		out = append(out, c)
	}
	return out
}

// tableIIIPaper holds the published Table III values.
var tableIIIPaper = map[string]struct {
	probe   string
	s       float64
	lodUM   float64
	lo, hi  float64
	comment string
}{
	"glucose":       {"glucose oxidase", 27.7, 575, 0.5, 4, ""},
	"lactate":       {"lactate oxidase", 40.1, 366, 0.5, 2.5, ""},
	"glutamate":     {"glutamate oxidase", 25.5, 1574, 0.5, 2, "paper's LOD exceeds its range floor"},
	"benzphetamine": {"CYP2B4", 0.28, 200, 0.2, 1.2, ""},
	"aminopyrine":   {"CYP2B4", 2.8, 400, 0.8, 8, ""},
	"cholesterol":   {"CYP11A1", 112, 0, 0.01, 0.08, "paper reports no LOD"},
}

// TableIII reproduces Table III: full-chain calibration per target on
// the 0.23 mm² platform electrodes with the cited constructions. The
// linear window is chosen on the calibration curve denoised by a
// Michaelis–Menten fit, and the figures of merit are computed from the
// raw points over it (analysis.Calibration.Analyze).
func TableIII() (*Result, error) {
	res := &Result{ID: "E3", Title: "Table III — sensitivity / LOD / linear range"}
	order := []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"}
	grids := tableIIIGrids()
	for _, target := range order {
		paper := tableIIIPaper[target]
		sensor, err := advdiag.NewSensor(target, advdiag.WithProbe(paper.probe), advdiag.WithSeed(11))
		if err != nil {
			return nil, err
		}
		rep, err := sensor.Calibrate(grids[target])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", target, err)
		}
		lodPaper := "—"
		if paper.lodUM > 0 {
			lodPaper = fmt.Sprintf("%.0f µM", paper.lodUM)
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%s / %s", target, paper.probe),
			Paper: fmt.Sprintf("S=%.3g µA/(mM·cm²) LOD=%s linear %.3g–%.3g mM",
				paper.s, lodPaper, paper.lo, paper.hi),
			Measured: fmt.Sprintf("S=%.3g µA/(mM·cm²) LOD=%.3g µM linear %.3g–%.3g mM (R²=%.3f)",
				rep.SensitivityPaper, rep.LODMicroMolar, rep.LinearLoMM, rep.LinearHiMM, rep.R2),
		})
		res.metric(target+"_S", rep.SensitivityPaper)
		res.metric(target+"_LOD_uM", rep.LODMicroMolar)
		res.metric(target+"_hi_mM", rep.LinearHiMM)
		if paper.comment != "" {
			res.Notes = append(res.Notes, target+": "+paper.comment)
		}
	}
	res.Notes = append(res.Notes,
		"calibration: 12 blanks, 16 replicates per point, anchored at the lowest standard, eq. 5/6/7 analysis",
		"linear window: the 5 %-of-span residual rule on a Michaelis–Menten fit of the curve; slope, R², LOD and NLmax from the raw points")
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
