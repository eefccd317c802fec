package experiments

import (
	"fmt"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
)

// selectReadout wraps the explorer's catalog rule for the E8 report.
func selectReadout(maxI, resReq phys.Current) (string, error) {
	rc, err := core.SelectReadout(maxI, resReq)
	if err != nil {
		return "", err
	}
	return rc.Name, nil
}

// StructureAblation (E10) quantifies the paper's §II-A structural
// argument: measure the cross-talk error of a co-chambered oxidase pair
// versus isolated chambers, and the platform cost of each policy.
func StructureAblation() (*Result, error) {
	res := &Result{ID: "E10", Title: "§II-A sensor structures — cross-talk vs cost"}

	ag := enzyme.AssaysFor("glucose")[0]
	al := enzyme.AssaysFor("lactate")[0]

	// Glucose reading error caused by 2 mM lactate next door.
	runGlucose := func(shared bool) (float64, error) {
		weG := electrode.NewWorking("WEG", electrode.CNT, ag)
		weL := electrode.NewWorking("WEL", electrode.CNT, al)
		var c *cell.Cell
		solWith := cell.NewSolution().Set("glucose", phys.MilliMolar(1)).Set("lactate", phys.MilliMolar(2))
		if shared {
			c = cell.NewSingleChamber(solWith, weG, weL,
				electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		} else {
			solG := cell.NewSolution().Set("glucose", phys.MilliMolar(1))
			solL := cell.NewSolution().Set("lactate", phys.MilliMolar(2))
			c = &cell.Cell{Crosstalk: cell.DefaultCrosstalk, Chambers: []*cell.Chamber{
				{Name: "chG", Solution: solG, Electrodes: []*electrode.Electrode{
					weG, electrode.NewReference("RE1"), electrode.NewCounter("CE1")}},
				{Name: "chL", Solution: solL, Electrodes: []*electrode.Electrode{
					weL, electrode.NewReference("RE2"), electrode.NewCounter("CE2")}},
			}}
		}
		eng, err := measure.NewEngine(c, 23)
		if err != nil {
			return 0, err
		}
		chain := analog.NewNanoChain(nil, eng.RNG())
		chain.Noise = nil
		r, err := eng.RunCA("WEG", chain, measure.Chronoamperometry{Duration: 60})
		if err != nil {
			return 0, err
		}
		return float64(r.SteadyCurrent()), nil
	}
	iShared, err := runGlucose(true)
	if err != nil {
		return nil, err
	}
	iIsolated, err := runGlucose(false)
	if err != nil {
		return nil, err
	}
	crossErr := (iShared - iIsolated) / iIsolated * 100
	res.Rows = append(res.Rows, Row{
		Label:    "glucose reading with 2 mM lactate co-chambered",
		Paper:    "H₂O₂ cross-talk assumed negligible in a shared chamber",
		Measured: fmt.Sprintf("+%.2f %% signal error vs isolated chambers", crossErr),
	})
	res.metric("crosstalk_pct", crossErr)

	// Cost of the three chamber policies for the full panel.
	req := core.Requirements{Targets: []core.TargetSpec{
		{Species: "glucose"}, {Species: "lactate"}, {Species: "glutamate"},
		{Species: "benzphetamine"}, {Species: "aminopyrine"}, {Species: "cholesterol"},
	}}
	asn := map[string]enzyme.Assay{}
	for _, t := range req.Targets {
		asn[t.Species] = pickAssay(t.Species)
	}
	for _, policy := range []core.ChamberPolicy{core.SharedChamber, core.ChamberPerTechnique, core.ChamberPerElectrode} {
		cand, err := core.Evaluate(req, core.Choice{
			Assays: asn, GroupSameIsoform: true, Chambers: policy, Sharing: core.SharedMux,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Label:    policy.String(),
			Paper:    "separate chambers when reactions must be kept apart",
			Measured: fmt.Sprintf("%s (feasible=%v)", cand.Budget, cand.Feasible),
		})
		res.metric("area_"+policy.String(), cand.Budget.AreaMM2)
	}
	return res, nil
}

// pickAssay prefers oxidase routes for metabolites except cholesterol
// (the paper's own choice is CYP11A1).
func pickAssay(target string) enzyme.Assay {
	assays := enzyme.AssaysFor(target)
	if target == "cholesterol" {
		for _, a := range assays {
			if a.Probe == "CYP11A1" {
				return a
			}
		}
	}
	return assays[0]
}

// SweepRateLimit (E11) reproduces the §II-C sweep-rate discussion: as
// the rate rises past the cell limit, the quasi-reversible peak shifts
// away from the target's potential and identification degrades. The
// shift is a property of the electrode kinetics, so the peak is located
// on the noise-free unit flux of the binding (measure.CVFluxBasis,
// driven through the potentiostat): on a noisy current the broad
// fast-sweep peak's argmin moves with the noise stream by more than the
// kinetic shift itself.
func SweepRateLimit() (*Result, error) {
	res := &Result{ID: "E11", Title: "§II-C sweep-rate limit — peak-position error vs rate"}
	a := pickAssay("benzphetamine")
	// The basis reads only the electrode's binding and the
	// potentiostat: no analyte, noise model or seed enters it.
	we := electrode.NewWorking("WE1", electrode.Bare, a)
	c := cell.NewSingleChamber(cell.NewSolution(), we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := measure.NewEngine(c, 0)
	if err != nil {
		return nil, err
	}
	chain := &analog.Chain{Pstat: analog.DefaultPotentiostat()}
	start, vertex := measure.CVWindowFor(a.Binding.PeakPotential)
	ref := 0.0
	for _, mvs := range []float64{20, 50, 100, 200, 500, 1000, 2000} {
		basis, err := eng.CVFluxBasis("WE1", measure.CyclicVoltammetry{
			Start: start, Vertex: vertex,
			Rate: phys.MilliVoltsPerSecond(mvs),
		}, chain)
		if err != nil {
			return nil, err
		}
		// Cathodic peak on the forward branch: the largest reduction
		// flux (the most negative current).
		flux, pot := basis.Flux("benzphetamine")
		maxF, peakV := 0.0, 0.0
		for i := 0; i < len(pot)/2; i++ {
			if flux[i] > maxF {
				maxF, peakV = flux[i], pot[i]
			}
		}
		pos := peakV*1e3 - a.Binding.PeakPotential.MilliVolts()
		if mvs == 20 {
			ref = pos // shifts are reported relative to the reference rate
		}
		shift := pos - ref
		status := "OK"
		if err := analog.CheckSweepRate(phys.MilliVoltsPerSecond(mvs)); err != nil {
			status = "beyond cell limit"
		}
		res.Rows = append(res.Rows, Row{
			Label:    fmt.Sprintf("%4.0f mV/s", mvs),
			Paper:    "peaks stay on target only for slow sweeps (~20 mV/s)",
			Measured: fmt.Sprintf("peak shift %+.0f mV vs 20 mV/s (%s)", shift, status),
		})
		res.metric(fmt.Sprintf("shift_%.0f", mvs), shift)
	}
	res.Notes = append(res.Notes,
		"the shift grows with rate through the quasi-reversible kinetics of the protein film (Matsuda–Ayabe):",
		"Λ = k⁰/√(D·f·v) falls below ~3 past a few hundred mV/s and the cathodic peak walks off the target potential")
	return res, nil
}

// MuxSharing (E12) quantifies the De Venuto multiplexing trade-off:
// shared-mux electronics versus dedicated per-electrode chains.
func MuxSharing() (*Result, error) {
	res := &Result{ID: "E12", Title: "§III multiplexing — shared mux vs dedicated chains"}
	req := core.Requirements{Targets: []core.TargetSpec{
		{Species: "glucose"}, {Species: "lactate"}, {Species: "glutamate"},
		{Species: "benzphetamine"}, {Species: "aminopyrine"}, {Species: "cholesterol"},
	}}
	asn := map[string]enzyme.Assay{}
	for _, t := range req.Targets {
		asn[t.Species] = pickAssay(t.Species)
	}
	for _, cfg := range []struct {
		sharing  core.ReadoutSharing
		chambers core.ChamberPolicy
		label    string
	}{
		{core.SharedMux, core.SharedChamber, "shared mux, shared chamber (Fig. 4)"},
		{core.DedicatedChains, core.SharedChamber, "dedicated chains, shared chamber"},
		{core.DedicatedChains, core.ChamberPerElectrode, "dedicated chains, isolated chambers (parallel)"},
	} {
		cand, err := core.Evaluate(req, core.Choice{
			Assays: asn, GroupSameIsoform: true, Chambers: cfg.chambers, Sharing: cfg.sharing,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Row{
			Label:    cfg.label,
			Paper:    "share voltage generators and current readouts by multiplexing [23]",
			Measured: fmt.Sprintf("%s, panel %.0f s, %.1f samples/h", cand.Budget, cand.PanelTime, cand.Throughput()),
		})
		res.metric("panel_s_"+cfg.label, cand.PanelTime)
	}
	return res, nil
}
