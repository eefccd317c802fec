package runtime

import (
	"math"
	"strings"
	"sync"
	"testing"

	"advdiag/internal/core"
)

func TestMonitorSpecValidate(t *testing.T) {
	bad := []struct {
		name string
		spec MonitorSpec
	}{
		{"no target", MonitorSpec{ConcentrationMM: 1}},
		{"negative concentration", MonitorSpec{Target: "glucose", ConcentrationMM: -1}},
		{"NaN duration", MonitorSpec{Target: "glucose", ConcentrationMM: 1, DurationSeconds: math.NaN()}},
		{"negative duration", MonitorSpec{Target: "glucose", ConcentrationMM: 1, DurationSeconds: -4}},
		{"NaN baseline", MonitorSpec{Target: "glucose", ConcentrationMM: 1, BaselineSeconds: math.NaN()}},
		{"baseline swallows trace", MonitorSpec{Target: "glucose", ConcentrationMM: 1, DurationSeconds: 10, BaselineSeconds: 10}},
		{"infinite age", MonitorSpec{Target: "glucose", ConcentrationMM: 1, AgeHours: math.Inf(1)}},
		{"negative age", MonitorSpec{Target: "glucose", ConcentrationMM: 1, AgeHours: -1}},
		{"negative injection time", MonitorSpec{Target: "glucose", DurationSeconds: 10,
			Injections: []Injection{{AtSeconds: -1, DeltaMM: 1}}}},
		{"NaN injection delta", MonitorSpec{Target: "glucose", DurationSeconds: 10,
			Injections: []Injection{{AtSeconds: 2, DeltaMM: math.NaN()}}}},
		{"injection past trace end", MonitorSpec{Target: "glucose", DurationSeconds: 10,
			Injections: []Injection{{AtSeconds: 11, DeltaMM: 1}}}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	good := MonitorSpec{Target: "glucose", ConcentrationMM: 1, DurationSeconds: 10, BaselineSeconds: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// A zero duration selects the protocol default, so a baseline phase
	// shorter than the default validates and an injection inside the
	// default window validates.
	zero := MonitorSpec{Target: "glucose", ConcentrationMM: 1, BaselineSeconds: 5,
		Injections: []Injection{{AtSeconds: DefaultMonitorDurationSeconds / 2, DeltaMM: 0.5}}}
	if zero.effectiveDuration() != DefaultMonitorDurationSeconds {
		t.Fatalf("zero duration resolved to %g", zero.effectiveDuration())
	}
	if err := zero.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeMonitorTraceFlatBaseline(t *testing.T) {
	a, err := AnalyzeMonitorTrace([]float64{0, 1, 2, 3}, []float64{2, 4, 2, 4}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.BaselineMicroAmps != 3 || a.SteadyMicroAmps != 3 || !a.Settled {
		t.Fatalf("flat run analysis %+v, want mean 3 both levels, settled", a)
	}
}

// TestAnalyzeMonitorTraceTruncatesAtSecondInjection: with two
// injections the step analysis must describe only the first segment —
// a synthetic double step whose second rise would drag the steady
// level if it leaked in.
func TestAnalyzeMonitorTraceTruncatesAtSecondInjection(t *testing.T) {
	var times, amps []float64
	for i := 0; i < 400; i++ {
		tv := float64(i) * 0.1
		v := 1.0
		switch {
		case tv >= 20:
			v = 9 // second step — must be invisible to the analysis
		case tv >= 5:
			v = 3
		}
		times = append(times, tv)
		amps = append(amps, v)
	}
	inj := []Injection{{AtSeconds: 5, DeltaMM: 1}, {AtSeconds: 20, DeltaMM: 2}}
	a, err := AnalyzeMonitorTrace(times, amps, 0, inj)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.BaselineMicroAmps-1) > 0.2 {
		t.Fatalf("baseline %g, want ~1", a.BaselineMicroAmps)
	}
	if math.Abs(a.SteadyMicroAmps-3) > 0.3 {
		t.Fatalf("steady %g, want ~3 (second injection leaked into the segment)", a.SteadyMicroAmps)
	}
}

func TestMonitorSeedIdentity(t *testing.T) {
	a := MonitorSeed(21, "campaign-a", 3)
	if b := MonitorSeed(21, "campaign-a", 3); a != b {
		t.Fatal("same identity drew different seeds")
	}
	if MonitorSeed(21, "campaign-b", 3) == a {
		t.Fatal("campaign ID not mixed into the seed")
	}
	if MonitorSeed(21, "campaign-a", 4) == a {
		t.Fatal("tick index not mixed into the seed")
	}
	if MonitorSeed(22, "campaign-a", 3) == a {
		t.Fatal("base seed not mixed into the seed")
	}
}

// TestRunMonitorTwoPhase: the two-phase protocol on a warmed executor
// is deterministic, records a full trace, and inverts the step back to
// a concentration near the presented one.
func TestRunMonitorTwoPhase(t *testing.T) {
	e := faultExecutor(t)
	mt := e.MonitorTargets()
	if len(mt) == 0 {
		t.Fatal("platform has no monitorable target")
	}
	// A minute-scale window: short traces do not settle, and the
	// unsettled step under-reads (the calibration inversion then reads
	// low — the protocol default exists for a reason).
	spec := MonitorSpec{
		Target:          mt[0],
		ConcentrationMM: 1.0,
		DurationSeconds: 60,
		BaselineSeconds: 10,
	}
	seed := MonitorSeed(e.Seed(), "qc", 0)
	a, err := e.RunMonitor(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TimesSeconds) == 0 || len(a.TimesSeconds) != len(a.CurrentsMicroAmps) {
		t.Fatalf("trace shape %d/%d", len(a.TimesSeconds), len(a.CurrentsMicroAmps))
	}
	if a.StepMicroAmps <= 0 {
		t.Fatalf("two-phase step current %g ≤ 0", a.StepMicroAmps)
	}
	if a.EstimatedMM <= 0 || math.Abs(a.EstimatedMM-spec.ConcentrationMM) > 0.5 {
		t.Fatalf("estimate %g mM far from presented %g mM", a.EstimatedMM, spec.ConcentrationMM)
	}
	b, err := e.RunMonitor(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CurrentsMicroAmps {
		if a.CurrentsMicroAmps[i] != b.CurrentsMicroAmps[i] {
			t.Fatalf("sample %d: repeat run diverged", i)
		}
	}
	if a.EstimatedMM != b.EstimatedMM {
		t.Fatal("repeat run changed the estimate")
	}
	// Film aging must cost sensitivity: an aged acquisition reads lower
	// than a fresh one, and the polymer film slows that decay.
	aged := spec
	aged.AgeHours = 400
	ar, err := e.RunMonitor(aged, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ar.StepMicroAmps >= a.StepMicroAmps {
		t.Fatalf("aged film step %g ≥ fresh %g", ar.StepMicroAmps, a.StepMicroAmps)
	}
	poly := aged
	poly.Polymer = true
	pr, err := e.RunMonitor(poly, seed)
	if err != nil {
		t.Fatal(err)
	}
	if pr.StepMicroAmps <= ar.StepMicroAmps {
		t.Fatalf("polymer-stabilized aged step %g ≤ bare aged %g", pr.StepMicroAmps, ar.StepMicroAmps)
	}
}

// TestRunMonitorInjection: a Fig. 3 injection run starts from a clean
// chamber and steps when the bolus lands.
func TestRunMonitorInjection(t *testing.T) {
	e := faultExecutor(t)
	mt := e.MonitorTargets()
	if len(mt) == 0 {
		t.Fatal("platform has no monitorable target")
	}
	spec := MonitorSpec{
		Target:          mt[0],
		DurationSeconds: 8,
		Injections:      []Injection{{AtSeconds: 3, DeltaMM: 1}},
	}
	tr, err := e.RunMonitor(spec, MonitorSeed(e.Seed(), "inj", 0))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Analysis.SteadyMicroAmps <= tr.Analysis.BaselineMicroAmps {
		t.Fatalf("injection produced no step: baseline %g, steady %g",
			tr.Analysis.BaselineMicroAmps, tr.Analysis.SteadyMicroAmps)
	}
}

func TestRunMonitorRejects(t *testing.T) {
	e := faultExecutor(t)
	if _, err := e.RunMonitor(MonitorSpec{Target: "glucose", DurationSeconds: -1}, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// benzphetamine is served by cyclic voltammetry on this platform —
	// measurable in a panel, not monitorable.
	_, err := e.RunMonitor(MonitorSpec{Target: "benzphetamine", ConcentrationMM: 1, DurationSeconds: 8}, 1)
	if err == nil || !strings.Contains(err.Error(), "chronoamperometric") {
		t.Fatalf("CV target accepted for monitoring: %v", err)
	}
	if _, err := e.RunMonitor(MonitorSpec{Target: "unobtainium", ConcentrationMM: 1, DurationSeconds: 8}, 1); err == nil {
		t.Fatal("unknown target accepted for monitoring")
	}
}

func TestExecutorAccessors(t *testing.T) {
	e := faultExecutor(t)
	if e.Seed() != 21 {
		t.Fatalf("seed %d", e.Seed())
	}
	if e.Plan() == nil {
		t.Fatal("no acquisition plan")
	}
	tg, mt := e.Targets(), e.MonitorTargets()
	if len(tg) != 2 {
		t.Fatalf("targets %v", tg)
	}
	if len(mt) == 0 || len(mt) >= len(tg) {
		t.Fatalf("monitorable %v of %v: the CV target must not qualify", mt, tg)
	}
}

// oxidaseExecutor builds a warmed executor serving the three oxidase
// (chronoamperometric) targets of the Fig. 4 demonstrator.
func oxidaseExecutor(t *testing.T) *Executor {
	t.Helper()
	best, err := core.BestWith(core.Requirements{
		Targets: []core.TargetSpec{{Species: "glucose"}, {Species: "lactate"}, {Species: "glutamate"}},
	}, core.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.Synthesize(best)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(inner, 21)
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	return e
}

// sameTrace compares two monitor traces bit for bit.
func sameTrace(a, b MonitorTrace) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	fa := []float64{a.Analysis.T90Seconds, a.Analysis.TransientSeconds, a.Analysis.BaselineMicroAmps,
		a.Analysis.SteadyMicroAmps, a.StepMicroAmps, a.EstimatedMM}
	fb := []float64{b.Analysis.T90Seconds, b.Analysis.TransientSeconds, b.Analysis.BaselineMicroAmps,
		b.Analysis.SteadyMicroAmps, b.StepMicroAmps, b.EstimatedMM}
	return same(a.TimesSeconds, b.TimesSeconds) && same(a.CurrentsMicroAmps, b.CurrentsMicroAmps) &&
		same(fa, fb) && a.Analysis.Settled == b.Analysis.Settled
}

// TestRunMonitorWarmScratchBitIdentical: one executor runs an
// interleaved sequence of ticks — every oxidase target, fresh and aged
// films with and without polymer, zero to two injections, with and
// without a baseline phase, 6 to 150 s traces — so each tick lands on
// a pooled scratch the previous, differently shaped ticks left behind.
// Every trace must equal the one a fresh executor records.
func TestRunMonitorWarmScratchBitIdentical(t *testing.T) {
	warm := oxidaseExecutor(t)
	targets := warm.MonitorTargets()
	if len(targets) != 3 {
		t.Fatalf("monitorable targets %v, want the three oxidase targets", targets)
	}
	durations := []float64{6, 30, 60, 150}
	ages := []float64{0, 120}
	for k := 0; k < 48; k++ {
		dur := durations[k%len(durations)]
		spec := MonitorSpec{
			Target:          targets[k%3],
			ConcentrationMM: 0.5 + 0.25*float64(k%5),
			DurationSeconds: dur,
			AgeHours:        ages[(k/3)%2],
			Polymer:         (k/2)%2 == 1,
		}
		if (k/4)%2 == 1 {
			spec.BaselineSeconds = dur / 3
		}
		switch (k / 8) % 3 {
		case 1:
			spec.Injections = []Injection{{AtSeconds: dur / 4, DeltaMM: 1}}
		case 2:
			spec.Injections = []Injection{{AtSeconds: dur * 3 / 4, DeltaMM: -0.5}, {AtSeconds: dur / 4, DeltaMM: 1}}
		}
		seed := MonitorSeed(warm.Seed(), "warm", k)
		got, err := warm.RunMonitor(spec, seed)
		if err != nil {
			t.Fatalf("tick %d (%+v): %v", k, spec, err)
		}
		want, err := NewExecutor(warm.inner, warm.Seed()).RunMonitor(spec, seed)
		if err != nil {
			t.Fatalf("tick %d (%+v) on a fresh executor: %v", k, spec, err)
		}
		if !sameTrace(got, want) {
			t.Fatalf("tick %d (%+v): warm-scratch trace differs from a fresh executor's", k, spec)
		}
	}
}

// TestMonitorTraceSeriesIndependent: the two recorded series share one
// allocation, so appending to the times must not overwrite currents.
func TestMonitorTraceSeriesIndependent(t *testing.T) {
	e := oxidaseExecutor(t)
	tr, err := e.RunMonitor(MonitorSpec{Target: "glucose", ConcentrationMM: 1, DurationSeconds: 6, BaselineSeconds: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.CurrentsMicroAmps[0]
	_ = append(tr.TimesSeconds, -1)
	if tr.CurrentsMicroAmps[0] != first {
		t.Fatal("appending to TimesSeconds overwrote CurrentsMicroAmps")
	}
}

// TestRunMonitorConcurrent: goroutines sharing one executor each draw
// their own pooled scratch, so concurrent ticks reproduce the traces a
// sequential run records.
func TestRunMonitorConcurrent(t *testing.T) {
	e := oxidaseExecutor(t)
	targets := e.MonitorTargets()
	spec := func(k int) MonitorSpec {
		return MonitorSpec{Target: targets[k%len(targets)], ConcentrationMM: 1 + float64(k%4),
			DurationSeconds: 6 + float64(k%3)*12, BaselineSeconds: 2, AgeHours: float64(k)}
	}
	const ticks = 24
	want := make([]MonitorTrace, ticks)
	for k := range want {
		tr, err := e.RunMonitor(spec(k), uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = tr
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < ticks; k += 4 {
				got, err := e.RunMonitor(spec(k), uint64(k))
				if err != nil {
					t.Error(err)
					return
				}
				if !sameTrace(got, want[k]) {
					t.Errorf("tick %d: concurrent trace differs from the sequential one", k)
				}
			}
		}(g)
	}
	wg.Wait()
}
