package advdiag_test

import (
	"math"
	"strings"
	"testing"

	"advdiag"
)

// TestMonitorMultiInjection pins the multi-injection segment contract:
// the recorded series covers the full run, but every analysis field
// describes the FIRST injection's segment only (the trace truncated at
// the second injection time).
//
// The staircase case runs separately, as an ensemble: its 0.5 mM first
// step is about 8 ADC LSB, so whether that segment is judged settled,
// and where its t90 and transient land, depends on the noise.
func TestMonitorMultiInjection(t *testing.T) {
	cases := []struct {
		name       string
		duration   float64
		injections []advdiag.InjectionEvent
	}{
		{"two steps", 240, []advdiag.InjectionEvent{
			{AtSeconds: 20, DeltaMM: 1.5}, {AtSeconds: 120, DeltaMM: 1.5}}},
		{"three steps", 420, []advdiag.InjectionEvent{
			{AtSeconds: 20, DeltaMM: 1.5}, {AtSeconds: 160, DeltaMM: 1.5}, {AtSeconds: 300, DeltaMM: 1.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Monitor(tc.duration, tc.injections...)
			if err != nil {
				t.Fatal(err)
			}
			// The recorded series spans the full run, later injections
			// included.
			last := res.TimesSeconds[len(res.TimesSeconds)-1]
			if last < tc.duration-1 {
				t.Fatalf("trace ends at %g s, duration %g s", last, tc.duration)
			}
			// Analysis is confined to the first-injection segment: both
			// times count from the first injection and must land before
			// the second one.
			window := tc.injections[1].AtSeconds - tc.injections[0].AtSeconds
			if res.T90Seconds <= 0 || res.T90Seconds >= window {
				t.Fatalf("t90 %g s outside the first segment window (0, %g)", res.T90Seconds, window)
			}
			if res.TransientSeconds <= 0 || res.TransientSeconds >= window {
				t.Fatalf("transient %g s outside the first segment window (0, %g)", res.TransientSeconds, window)
			}
			if !res.Settled {
				t.Fatal("first segment must settle before the second injection")
			}
			if res.SteadyMicroAmps <= res.BaselineMicroAmps {
				t.Fatalf("first step must raise the current: baseline %g, steady %g µA",
					res.BaselineMicroAmps, res.SteadyMicroAmps)
			}
			// Later injections keep stepping the current past the first
			// segment's steady level — SteadyMicroAmps is NOT the final
			// trace level.
			final := res.CurrentsMicroAmps[len(res.CurrentsMicroAmps)-1]
			if final <= res.SteadyMicroAmps {
				t.Fatalf("final current %g µA must exceed first-segment steady %g µA", final, res.SteadyMicroAmps)
			}
			if got := res.StepMicroAmps; math.Abs(got-(res.SteadyMicroAmps-res.BaselineMicroAmps)) > 1e-12 {
				t.Fatalf("hand-held step current %g µA, want steady−baseline %g µA",
					got, res.SteadyMicroAmps-res.BaselineMicroAmps)
			}
		})
	}
	// Over sensor seeds 1–200, 51 staircase runs met the settle, t90 and
	// transient conditions (measured with the Marsaglia polar normal
	// generator). The floor is that count minus a 3σ binomial margin
	// (σ = √(200·0.255·0.745) ≈ 6.2), i.e. 32. The structural
	// conditions must hold on every seed.
	t.Run("staircase with unequal steps", func(t *testing.T) {
		const duration, seeds, floor = 300, 200, 32
		injections := []advdiag.InjectionEvent{{AtSeconds: 30, DeltaMM: 0.5}, {AtSeconds: 160, DeltaMM: 2.5}}
		window := injections[1].AtSeconds - injections[0].AtSeconds
		met := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Monitor(duration, injections...)
			if err != nil {
				t.Fatal(err)
			}
			if last := res.TimesSeconds[len(res.TimesSeconds)-1]; last < duration-1 {
				t.Fatalf("seed %d: trace ends at %g s, duration %g s", seed, last, float64(duration))
			}
			if res.SteadyMicroAmps <= res.BaselineMicroAmps {
				t.Fatalf("seed %d: first step must raise the current: baseline %g, steady %g µA",
					seed, res.BaselineMicroAmps, res.SteadyMicroAmps)
			}
			if final := res.CurrentsMicroAmps[len(res.CurrentsMicroAmps)-1]; final <= res.SteadyMicroAmps {
				t.Fatalf("seed %d: final current %g µA must exceed first-segment steady %g µA", seed, final, res.SteadyMicroAmps)
			}
			if got := res.StepMicroAmps; math.Abs(got-(res.SteadyMicroAmps-res.BaselineMicroAmps)) > 1e-12 {
				t.Fatalf("seed %d: hand-held step current %g µA, want steady−baseline %g µA",
					seed, got, res.SteadyMicroAmps-res.BaselineMicroAmps)
			}
			if res.T90Seconds > 0 && res.T90Seconds < window &&
				res.TransientSeconds > 0 && res.TransientSeconds < window && res.Settled {
				met++
			}
		}
		t.Logf("first segment met the settle/t90/transient conditions on %d of %d seeds", met, seeds)
		if met < floor {
			t.Fatalf("first segment met the settle/t90/transient conditions on %d of %d seeds, want ≥ %d", met, seeds, floor)
		}
	})
}

// TestMonitorMultiInjectionPrefixInvariance: adding a second injection
// must not change what happened BEFORE it — the recorded trace prefix
// and the pre-injection baseline are bit-identical. The derived
// t90/transient/steady numbers are NOT invariant by contract: the
// analyzer's smoothing window and steady-state tail both scale with
// the analyzed segment's length, which the truncation point sets.
func TestMonitorMultiInjectionPrefixInvariance(t *testing.T) {
	run := func(injections ...advdiag.InjectionEvent) *advdiag.MonitorResult {
		s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Monitor(240, injections...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	single := run(advdiag.InjectionEvent{AtSeconds: 20, DeltaMM: 2})
	double := run(advdiag.InjectionEvent{AtSeconds: 20, DeltaMM: 2},
		advdiag.InjectionEvent{AtSeconds: 150, DeltaMM: 2})
	if single.BaselineMicroAmps != double.BaselineMicroAmps {
		t.Fatalf("baseline changed with a later injection: %g vs %g µA",
			single.BaselineMicroAmps, double.BaselineMicroAmps)
	}
	// The recorded traces are bit-identical up to the second injection.
	for i, tv := range double.TimesSeconds {
		if tv >= 150 {
			break
		}
		if single.TimesSeconds[i] != tv || single.CurrentsMicroAmps[i] != double.CurrentsMicroAmps[i] {
			t.Fatalf("trace prefix diverges at point %d (t=%g s)", i, tv)
		}
	}
}

// TestMonitorInjectionValidation: malformed injections are rejected
// before anything reaches the solver, with errors naming the offense.
func TestMonitorInjectionValidation(t *testing.T) {
	s, err := advdiag.NewSensor("glucose")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		duration float64
		inj      []advdiag.InjectionEvent
		want     string
	}{
		{"NaN time", 60, []advdiag.InjectionEvent{{AtSeconds: math.NaN(), DeltaMM: 1}}, "finite time"},
		{"infinite time", 60, []advdiag.InjectionEvent{{AtSeconds: math.Inf(1), DeltaMM: 1}}, "finite time"},
		{"negative time", 60, []advdiag.InjectionEvent{{AtSeconds: -3, DeltaMM: 1}}, "before the trace"},
		{"past the end", 60, []advdiag.InjectionEvent{{AtSeconds: 61, DeltaMM: 1}}, "past"},
		{"past the default duration", 0, []advdiag.InjectionEvent{{AtSeconds: 75, DeltaMM: 1}}, "past"},
		{"NaN delta", 60, []advdiag.InjectionEvent{{AtSeconds: 10, DeltaMM: math.NaN()}}, "finite concentration"},
		{"infinite delta", 60, []advdiag.InjectionEvent{{AtSeconds: 10, DeltaMM: math.Inf(-1)}}, "finite concentration"},
		{"second injection bad", 120, []advdiag.InjectionEvent{
			{AtSeconds: 10, DeltaMM: 1}, {AtSeconds: 130, DeltaMM: 1}}, "injection 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Monitor(tc.duration, tc.inj...)
			if err == nil {
				t.Fatal("invalid injection must be rejected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A boundary injection exactly at the trace end is legal.
	if _, err := s.Monitor(60, advdiag.InjectionEvent{AtSeconds: 60, DeltaMM: 1}); err != nil {
		t.Fatalf("injection at the trace end must be accepted: %v", err)
	}
}
