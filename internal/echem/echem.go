// Package echem implements the governing equations of amperometric
// electrochemistry used by the cell simulator: the Nernst equation,
// Butler–Volmer electrode kinetics, the Cottrell transient, the
// Randles–Ševčík peak-current relation, and double-layer charging.
//
// These are the textbook relations (Bard & Faulkner, "Electrochemical
// Methods") that the physical electrodes in the paper obey; implementing
// them — rather than looking answers up — is what lets CV peak positions
// and chronoamperometric transients emerge from simulation.
package echem

import (
	"fmt"
	"math"

	"advdiag/internal/phys"
)

// Nernst returns the equilibrium electrode potential for the couple
// O + n·e⁻ ⇌ R with formal potential e0 and surface concentrations
// cO, cR (both must be positive).
func Nernst(e0 phys.Voltage, n int, cO, cR phys.Concentration) (phys.Voltage, error) {
	if n <= 0 {
		return 0, fmt.Errorf("echem: electron count must be positive, got %d", n)
	}
	if cO <= 0 || cR <= 0 {
		return 0, fmt.Errorf("echem: Nernst needs positive concentrations, got O=%v R=%v", cO, cR)
	}
	vt := float64(phys.StandardThermalVoltage())
	return e0 + phys.Voltage(vt/float64(n)*math.Log(float64(cO)/float64(cR))), nil
}

// ButlerVolmer describes heterogeneous electron-transfer kinetics at an
// electrode for the couple O + n·e⁻ ⇌ R.
type ButlerVolmer struct {
	// E0 is the formal potential of the couple vs the reference.
	E0 phys.Voltage
	// N is the number of electrons transferred.
	N int
	// Alpha is the cathodic transfer coefficient (0 < α < 1, typically 0.5).
	Alpha float64
	// K0 is the standard heterogeneous rate constant in m/s. Large K0
	// (≥1e-4) behaves reversibly at the paper's slow sweep rates; small
	// K0 (≤1e-7) is irreversible.
	K0 float64
}

// Validate checks the kinetic parameters.
func (bv ButlerVolmer) Validate() error {
	if bv.N <= 0 {
		return fmt.Errorf("echem: ButlerVolmer.N must be positive, got %d", bv.N)
	}
	if bv.Alpha <= 0 || bv.Alpha >= 1 {
		return fmt.Errorf("echem: ButlerVolmer.Alpha must be in (0,1), got %g", bv.Alpha)
	}
	if bv.K0 <= 0 {
		return fmt.Errorf("echem: ButlerVolmer.K0 must be positive, got %g", bv.K0)
	}
	return nil
}

// RateConstants returns the forward (reduction, kf) and backward
// (oxidation, kb) rate constants in m/s at electrode potential e.
//
//	kf = k0·exp(-α·n·f·(E-E0))      (reduction of O)
//	kb = k0·exp((1-α)·n·f·(E-E0))   (oxidation of R)
//
// with f = F/RT.
func (bv ButlerVolmer) RateConstants(e phys.Voltage) (kf, kb float64) {
	f := 1.0 / float64(phys.StandardThermalVoltage())
	eta := float64(e - bv.E0)
	x := float64(bv.N) * f * eta
	kf = bv.K0 * math.Exp(-bv.Alpha*x)
	kb = bv.K0 * math.Exp((1-bv.Alpha)*x)
	return kf, kb
}

// FluxDensity returns the net reduction flux density (mol·m⁻²·s⁻¹,
// positive = O consumed at the surface) for surface concentrations cO,
// cR at potential e.
func (bv ButlerVolmer) FluxDensity(e phys.Voltage, cO, cR phys.Concentration) float64 {
	kf, kb := bv.RateConstants(e)
	return kf*float64(cO) - kb*float64(cR)
}

// SigmoidEfficiency is the fraction of the mass-transport-limited current
// obtained at potential e for an oxidation whose half-wave potential is
// eHalf: a Nernstian sigmoid 1/(1+exp(-n(E-E½)/Vt)). The oxidase
// chronoamperometry model uses it to express how the chosen applied
// potential (Table I) sets the plateau fraction of the H₂O₂ oxidation
// current.
func SigmoidEfficiency(e, eHalf phys.Voltage, n int) float64 {
	vt := float64(phys.StandardThermalVoltage())
	x := float64(n) * float64(e-eHalf) / vt
	return 1.0 / (1.0 + math.Exp(-x))
}

// Cottrell returns the diffusion-limited current at time t after a
// potential step, for a planar electrode of area a in a solution of bulk
// concentration c with diffusivity d:
//
//	I(t) = n·F·A·C·sqrt(D/(π·t))
//
// t must be positive.
func Cottrell(n int, a phys.Area, c phys.Concentration, d phys.Diffusivity, t float64) (phys.Current, error) {
	if t <= 0 {
		return 0, fmt.Errorf("echem: Cottrell time must be positive, got %g", t)
	}
	if n <= 0 || a <= 0 || d <= 0 {
		return 0, fmt.Errorf("echem: Cottrell needs positive n, area and diffusivity")
	}
	i := float64(n) * phys.Faraday * float64(a) * float64(c) * math.Sqrt(float64(d)/(math.Pi*t))
	return phys.Current(i), nil
}

// RandlesSevcik returns the reversible CV peak current for a planar
// electrode:
//
//	Ip = 0.4463·n·F·A·C·sqrt(n·F·v·D/(R·T))
//
// where v is the sweep rate. This is the analytic benchmark the finite-
// difference CV solver is validated against.
func RandlesSevcik(n int, a phys.Area, c phys.Concentration, d phys.Diffusivity, v phys.SweepRate) (phys.Current, error) {
	if n <= 0 || a <= 0 || d <= 0 || v <= 0 {
		return 0, fmt.Errorf("echem: RandlesSevcik needs positive n, area, diffusivity and sweep rate")
	}
	arg := float64(n) * phys.Faraday * float64(v) * float64(d) / (phys.GasConstant * phys.StandardTemperature)
	i := 0.4463 * float64(n) * phys.Faraday * float64(a) * float64(c) * math.Sqrt(arg)
	return phys.Current(i), nil
}

// ReversiblePeakShift is the offset of the cathodic peak from the
// half-wave potential for a reversible system: Ep = E½ − 1.109·RT/(nF)
// (≈ −28.5/n mV at 25 °C). The sign is negative because reduction peaks
// appear past the formal potential on the cathodic sweep.
func ReversiblePeakShift(n int) phys.Voltage {
	return phys.Voltage(-1.109 * float64(phys.StandardThermalVoltage()) / float64(n))
}

// DoubleLayer models the electrode/electrolyte interfacial capacitance
// together with the solution resistance feeding it.
type DoubleLayer struct {
	// Capacitance of the interface. Scaling electrodes down shrinks this
	// (paper §III: smaller background current for micro-electrodes).
	C phys.Capacitance
	// Rs is the uncompensated solution resistance.
	Rs phys.Resistance
}

// ChargingCurrent returns the capacitive charging current at time t
// after a potential step of magnitude dE: (dE/Rs)·exp(−t/(Rs·C)).
func (dl DoubleLayer) ChargingCurrent(dE phys.Voltage, t float64) phys.Current {
	if dl.Rs <= 0 || dl.C <= 0 || t < 0 {
		return 0
	}
	tau := float64(dl.Rs) * float64(dl.C)
	x := -t / tau
	if x < expUnderflow {
		// τ is microseconds against sample steps of ~0.1 s, so the
		// transient has long underflowed: math.Exp would return +0,
		// and the product below keeps the sign it would have had.
		return phys.Current(float64(dE) / float64(dl.Rs) * 0)
	}
	return phys.Current(float64(dE) / float64(dl.Rs) * math.Exp(x))
}

// expUnderflow is the argument below which math.Exp returns 0 (its
// documented underflow threshold, −1075·ln 2).
const expUnderflow = -7.45133219101941108420e+02

// SweepChargingCurrent returns the steady capacitive current under a
// linear sweep at rate v: I = C·v.
func (dl DoubleLayer) SweepChargingCurrent(v phys.SweepRate) phys.Current {
	return phys.Current(float64(dl.C) * float64(v))
}

// TimeConstant returns Rs·C.
func (dl DoubleLayer) TimeConstant() float64 {
	return float64(dl.Rs) * float64(dl.C)
}

// SpecificCapacitance is a typical double-layer capacitance per area for
// a polished gold electrode in aqueous buffer (F/m²; ≈20 µF/cm²).
const SpecificCapacitance = 0.20

// DoubleLayerFor builds a DoubleLayer for an electrode of area a with an
// area multiplier from nanostructuring (CNTs raise the effective
// microscopic area) and a given solution resistance.
func DoubleLayerFor(a phys.Area, areaGain float64, rs phys.Resistance) DoubleLayer {
	if areaGain < 1 {
		areaGain = 1
	}
	return DoubleLayer{
		C:  phys.Capacitance(SpecificCapacitance * float64(a) * areaGain),
		Rs: rs,
	}
}
