package echem

import (
	"math"
	"testing"
	"testing/quick"

	"advdiag/internal/phys"
)

func TestNernstEqualConcentrations(t *testing.T) {
	e, err := Nernst(phys.MilliVolts(-250), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e-phys.MilliVolts(-250))) > 1e-12 {
		t.Fatalf("equal concentrations must give E0, got %v", e)
	}
}

func TestNernstDecade(t *testing.T) {
	// A 10:1 O:R ratio shifts the potential by 59.2/n mV at 25 °C.
	e1, _ := Nernst(0, 1, 10, 1)
	if math.Abs(e1.MilliVolts()-59.2) > 0.3 {
		t.Fatalf("decade shift %g mV, want ≈59.2", e1.MilliVolts())
	}
	e2, _ := Nernst(0, 2, 10, 1)
	if math.Abs(e2.MilliVolts()-29.6) > 0.2 {
		t.Fatalf("n=2 decade shift %g mV, want ≈29.6", e2.MilliVolts())
	}
}

func TestNernstValidation(t *testing.T) {
	if _, err := Nernst(0, 0, 1, 1); err == nil {
		t.Error("n=0 must fail")
	}
	if _, err := Nernst(0, 1, 0, 1); err == nil {
		t.Error("zero concentration must fail")
	}
}

func TestButlerVolmerEquilibrium(t *testing.T) {
	bv := ButlerVolmer{E0: phys.MilliVolts(-100), N: 1, Alpha: 0.5, K0: 1e-5}
	// At E = E0 with equal surface concentrations the net flux is zero.
	if f := bv.FluxDensity(phys.MilliVolts(-100), 1, 1); math.Abs(f) > 1e-18 {
		t.Fatalf("non-zero flux at equilibrium: %g", f)
	}
}

func TestButlerVolmerDirection(t *testing.T) {
	bv := ButlerVolmer{E0: 0, N: 1, Alpha: 0.5, K0: 1e-5}
	// Negative overpotential drives reduction (positive net flux).
	if f := bv.FluxDensity(phys.MilliVolts(-200), 1, 1); f <= 0 {
		t.Fatalf("cathodic overpotential must reduce O, flux %g", f)
	}
	if f := bv.FluxDensity(phys.MilliVolts(+200), 1, 1); f >= 0 {
		t.Fatalf("anodic overpotential must oxidize R, flux %g", f)
	}
}

func TestButlerVolmerRateRatioIsNernstian(t *testing.T) {
	bv := ButlerVolmer{E0: 0, N: 1, Alpha: 0.5, K0: 1e-5}
	// kf/kb = exp(−n·f·(E−E0)) regardless of alpha.
	e := phys.MilliVolts(-77)
	kf, kb := bv.RateConstants(e)
	want := math.Exp(-float64(e) / float64(phys.StandardThermalVoltage()))
	if math.Abs(kf/kb-want) > 1e-9*want {
		t.Fatalf("kf/kb = %g, want %g", kf/kb, want)
	}
}

func TestButlerVolmerValidate(t *testing.T) {
	good := ButlerVolmer{E0: 0, N: 1, Alpha: 0.5, K0: 1e-5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ButlerVolmer{
		{N: 0, Alpha: 0.5, K0: 1e-5},
		{N: 1, Alpha: 0, K0: 1e-5},
		{N: 1, Alpha: 1.2, K0: 1e-5},
		{N: 1, Alpha: 0.5, K0: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v must fail validation", bad)
		}
	}
}

func TestSigmoidEfficiency(t *testing.T) {
	if got := SigmoidEfficiency(0, 0, 2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("η at E½ = %g, want 0.5", got)
	}
	// ln(19)·Vt/n past the half-wave gives 95 %.
	vt := float64(phys.StandardThermalVoltage())
	e := phys.Voltage(vt / 2 * math.Log(19))
	if got := SigmoidEfficiency(e, 0, 2); math.Abs(got-0.95) > 1e-9 {
		t.Fatalf("η = %g, want 0.95", got)
	}
	// Far past: saturates at 1.
	if got := SigmoidEfficiency(phys.Voltage(1), 0, 2); got < 0.9999 {
		t.Fatalf("η far past E½ = %g", got)
	}
}

func TestSigmoidMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 10 || math.Abs(b) > 10 {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return SigmoidEfficiency(phys.Voltage(lo), 0, 1) <= SigmoidEfficiency(phys.Voltage(hi), 0, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCottrell(t *testing.T) {
	// Hand-computed reference: n=1, A=1e-6 m², C=1 mol/m³, D=1e-9 m²/s,
	// t=1 s → I = F·1e-6·sqrt(1e-9/π).
	want := phys.Faraday * 1e-6 * math.Sqrt(1e-9/math.Pi)
	got, err := Cottrell(1, phys.Area(1e-6), 1, phys.Diffusivity(1e-9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got)-want) > 1e-12*want {
		t.Fatalf("Cottrell = %g, want %g", float64(got), want)
	}
	// t^{-1/2} decay.
	i4, _ := Cottrell(1, phys.Area(1e-6), 1, phys.Diffusivity(1e-9), 4)
	if math.Abs(float64(got)/float64(i4)-2) > 1e-9 {
		t.Fatal("Cottrell must decay as t^-1/2")
	}
	if _, err := Cottrell(1, 1e-6, 1, 1e-9, 0); err == nil {
		t.Error("t=0 must fail")
	}
}

func TestRandlesSevcik(t *testing.T) {
	// Reference value: n=1, A=1 m², C=1 mol/m³, D=1e-9, v=0.1 V/s.
	arg := phys.Faraday * 0.1 * 1e-9 / (phys.GasConstant * phys.StandardTemperature)
	want := 0.4463 * phys.Faraday * math.Sqrt(arg)
	got, err := RandlesSevcik(1, 1, 1, phys.Diffusivity(1e-9), phys.SweepRate(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got)-want) > 1e-9*want {
		t.Fatalf("RS = %g, want %g", float64(got), want)
	}
	// Ip ∝ sqrt(v).
	i2, _ := RandlesSevcik(1, 1, 1, phys.Diffusivity(1e-9), phys.SweepRate(0.4))
	if math.Abs(float64(i2)/float64(got)-2) > 1e-9 {
		t.Fatal("RS must scale as sqrt(v)")
	}
	if _, err := RandlesSevcik(0, 1, 1, 1e-9, 0.1); err == nil {
		t.Error("n=0 must fail")
	}
}

func TestReversiblePeakShift(t *testing.T) {
	// −28.5/n mV at 25 °C.
	if got := ReversiblePeakShift(1).MilliVolts(); math.Abs(got+28.5) > 0.2 {
		t.Fatalf("peak shift %g mV", got)
	}
	if got := ReversiblePeakShift(2).MilliVolts(); math.Abs(got+14.25) > 0.1 {
		t.Fatalf("n=2 peak shift %g mV", got)
	}
}

func TestDoubleLayer(t *testing.T) {
	dl := DoubleLayerFor(phys.SquareMillimetres(0.23), 1, 1000)
	// 0.23 mm² × 20 µF/cm² = 46 nF.
	if math.Abs(float64(dl.C)-46e-9) > 1e-12 {
		t.Fatalf("C = %g F, want 46 nF", float64(dl.C))
	}
	// Charging current decays with τ = RsC.
	i0 := dl.ChargingCurrent(phys.Voltage(0.5), 0)
	iTau := dl.ChargingCurrent(phys.Voltage(0.5), dl.TimeConstant())
	if math.Abs(float64(iTau)/float64(i0)-math.Exp(-1)) > 1e-9 {
		t.Fatal("charging current must decay exponentially")
	}
	// Sweep charging: I = C·v.
	if got := dl.SweepChargingCurrent(phys.MilliVoltsPerSecond(20)); math.Abs(float64(got)-46e-9*0.02) > 1e-15 {
		t.Fatalf("sweep charging %g", float64(got))
	}
	// Nanostructuring grows the double layer with microscopic area.
	dl5 := DoubleLayerFor(phys.SquareMillimetres(0.23), 5, 1000)
	if math.Abs(float64(dl5.C)/float64(dl.C)-5) > 1e-9 {
		t.Fatal("gain must scale capacitance")
	}
}

// TestChargingCurrentUnderflowEarlyOut pins the underflow short cut:
// ChargingCurrent returns bit-for-bit what (dE/Rs)·math.Exp(−t/τ)
// gives, signed zero included, on both sides of math.Exp's underflow
// threshold, and a slow (large-τ) transient still takes the exp path.
func TestChargingCurrentUnderflowEarlyOut(t *testing.T) {
	ref := func(dl DoubleLayer, dE phys.Voltage, tt float64) float64 {
		tau := float64(dl.Rs) * float64(dl.C)
		return float64(dE) / float64(dl.Rs) * math.Exp(-tt/tau)
	}
	// τ = 1 s puts −t/τ exactly at −t, so the probes can straddle the
	// threshold ulp by ulp.
	unit := DoubleLayer{C: 1e-3, Rs: 1000}
	var times []float64
	edge := -expUnderflow
	lo, hi := edge, edge
	for k := 0; k < 4; k++ {
		times = append(times, lo, hi)
		lo = math.Nextafter(lo, 0)
		hi = math.Nextafter(hi, math.Inf(1))
	}
	times = append(times, 0, 1, 700, 744.5, 745.5, 746, 1e3, 1e6, math.Inf(1))
	for _, dE := range []phys.Voltage{0.5, -0.5, 0, phys.Voltage(math.Copysign(0, -1))} {
		for _, tt := range times {
			got, want := float64(unit.ChargingCurrent(dE, tt)), ref(unit, dE, tt)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dE=%g t=%.17g: got %g (bits %#x), want %g (bits %#x)",
					float64(dE), tt, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if got := unit.ChargingCurrent(-0.5, 1e3); got != 0 || !math.Signbit(float64(got)) {
		t.Fatalf("underflowed negative step gives %g, want −0", float64(got))
	}
	// The platform's electrodes: τ of microseconds, samples 0.1 s apart.
	dl := DoubleLayerFor(phys.SquareMillimetres(0.23), 1, 1000)
	for _, tt := range []float64{0.05, 0.15, 1.05, 30} {
		if got, want := float64(dl.ChargingCurrent(0.65, tt)), ref(dl, 0.65, tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("platform double layer t=%g: got %g, want %g", tt, got, want)
		}
	}
	// Large τ (1000 s): −t/τ is −0.1, far above the threshold, so the
	// current must come from math.Exp and stay finite and non-zero.
	slow := DoubleLayer{C: 1, Rs: 1000}
	got := float64(slow.ChargingCurrent(0.5, 100))
	if want := ref(slow, 0.5, 100); got != want || got == 0 {
		t.Fatalf("large-τ charging current %g, want %g (non-zero)", got, want)
	}
}
