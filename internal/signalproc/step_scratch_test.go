package signalproc

import (
	"math"
	"testing"

	"advdiag/internal/mathx"
)

// analyzeStepReference is the allocating step analysis StepScratch
// replaced, kept verbatim as the oracle: it materializes the pre- and
// post-stimulus slices, the smoothed copy, the derivative and the
// regression residuals.
func analyzeStepReference(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	if len(times) != len(values) || len(values) < 8 {
		return StepResponse{}, ErrTooShort
	}
	var resp StepResponse

	var pre []float64
	for i, t := range times {
		if t < stimulusTime {
			pre = append(pre, values[i])
		}
	}
	if len(pre) == 0 {
		resp.Baseline = values[0]
	} else {
		resp.Baseline = mathx.Mean(pre)
	}

	n := int(float64(len(values)) * tailFrac)
	if n < 2 {
		n = 2
	}
	tail := values[len(values)-n:]
	tailTimes := times[len(times)-n:]
	resp.Steady = mathx.Mean(tail)

	step := resp.Steady - resp.Baseline
	if step == 0 {
		resp.Settled = true
		return resp, nil
	}

	level := resp.Baseline + 0.9*step
	var post []float64
	var postT []float64
	for i, t := range times {
		if t >= stimulusTime {
			post = append(post, values[i])
			postT = append(postT, t)
		}
	}
	if w := len(post) / 40; w >= 3 {
		if w%2 == 0 {
			w++
		}
		if w > 51 {
			w = 51
		}
		post = MovingAverage(post, w)
	}
	if len(post) >= 2 {
		if tc, err := mathx.CrossingTime(postT, post, level); err == nil {
			resp.T90 = tc - stimulusTime
			resp.Settled = settledReference(tailTimes, tail, step, resp.T90, stimulusTime)
		}
		dt := postT[1] - postT[0]
		if d, err := Derivative(post, dt); err == nil {
			maxI, maxD := 0, 0.0
			for i, v := range d {
				if a := abs(v); a > maxD {
					maxD, maxI = a, i
				}
			}
			resp.TTransient = postT[maxI] - stimulusTime
		}
	}
	return resp, nil
}

// settledReference is settled over FitLinear's materialized residuals.
func settledReference(tailTimes, tail []float64, step, t90, stimulusTime float64) bool {
	t0, t1 := tailTimes[0], tailTimes[len(tailTimes)-1]
	if t90 > 0 {
		tau := t90 / math.Ln10
		if math.Exp(-(t0-stimulusTime)/tau)-math.Exp(-(t1-stimulusTime)/tau) >= settleTolerance {
			return false
		}
	}
	fit, err := mathx.FitLinear(tailTimes, tail)
	if err != nil {
		return false
	}
	se := 0.0
	if n := len(tail); n > 2 {
		mt := mathx.Mean(tailTimes)
		var rss, sxx float64
		for i, r := range fit.Residuals {
			d := tailTimes[i] - mt
			rss += r * r
			sxx += d * d
		}
		se = math.Sqrt(rss/float64(n-2)/sxx) * (t1 - t0)
	}
	return abs(fit.Slope*(t1-t0)) < settleTolerance*abs(step)+3*se
}

// sameStep compares two step responses bit for bit (NaN-safe).
func sameStep(a, b StepResponse) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Baseline, b.Baseline) && eq(a.Steady, b.Steady) && eq(a.T90, b.T90) &&
		eq(a.TTransient, b.TTransient) && a.Settled == b.Settled
}

// stepCase is one randomized analysis input.
type stepCase struct {
	name          string
	times, values []float64
	stim, tail    float64
}

// randomStepCases builds first-order step traces with white noise over
// random lengths, spacings, stimulus times and tail fractions, plus the
// edge shapes: flat traces (step == 0), too-short and mismatched
// inputs, duplicate (dt == 0), decreasing (dt < 0) and NaN spacing.
func randomStepCases(rng *mathx.RNG, count int) []stepCase {
	var out []stepCase
	for k := 0; k < count; k++ {
		n := 2 + int(rng.Float64()*600)
		dt := 0.01 + rng.Float64()*0.5
		span := float64(n) * dt
		stim := -0.1*span + rng.Float64()*1.2*span
		tau := 0.1 + rng.Float64()*span
		sigma := rng.Float64() * 0.2
		times := make([]float64, n)
		values := make([]float64, n)
		for i := range times {
			times[i] = float64(i) * dt
			if times[i] >= stim {
				values[i] = 1 - math.Exp(-(times[i]-stim)/tau)
			}
			values[i] += rng.NormScaled(sigma)
		}
		c := stepCase{name: "random", times: times, values: values, stim: stim, tail: 0.05 + rng.Float64()*0.5}
		switch k % 10 {
		case 1:
			c.name = "flat"
			for i := range c.values {
				c.values[i] = 2
			}
		case 2:
			c.name = "dt == 0"
			for i := range c.times {
				c.times[i] = float64(i/2) * dt
			}
			c.stim = -1
		case 3:
			c.name = "dt < 0"
			for i := range c.times {
				c.times[i] = span - float64(i)*dt
			}
		case 4:
			// Post-stimulus timestamps are never NaN (NaN ≥ stimulus
			// is false), but ∞ − ∞ spacing is.
			c.name = "NaN spacing"
			c.times[0], c.times[1] = math.Inf(1), math.Inf(1)
			c.stim = -1
		case 5:
			c.name = "mismatched"
			c.values = c.values[:n-1]
		}
		out = append(out, c)
	}
	return out
}

// TestStepScratchMatchesReference: one scratch, reused across every
// randomized case (lengths and stimulus times change from call to
// call), must reproduce the reference analysis bit for bit, errors
// included, and cover each branch the reference takes.
func TestStepScratchMatchesReference(t *testing.T) {
	var s StepScratch
	branches := map[string]int{}
	for i, c := range randomStepCases(mathx.NewRNG(2024), 2000) {
		want, werr := analyzeStepReference(c.times, c.values, c.stim, c.tail)
		got, gerr := s.Analyze(c.times, c.values, c.stim, c.tail)
		if werr != gerr {
			t.Fatalf("case %d (%s): error %v, reference %v", i, c.name, gerr, werr)
		}
		if !sameStep(got, want) {
			t.Fatalf("case %d (%s): %+v, reference %+v", i, c.name, got, want)
		}
		if wrapped, err := AnalyzeStep(c.times, c.values, c.stim, c.tail); err != werr || !sameStep(wrapped, want) {
			t.Fatalf("case %d (%s): AnalyzeStep %+v (%v), reference %+v", i, c.name, wrapped, err, want)
		}
		nPost := 0
		for _, tv := range c.times {
			if tv >= c.stim {
				nPost++
			}
		}
		switch {
		case werr != nil:
			branches["too short"]++
		case want.Steady == want.Baseline:
			branches["step == 0"]++
		case nPost/40 >= 3:
			branches["smoothed"]++
		default:
			branches["unsmoothed"]++
		}
		if c.name == "NaN spacing" && werr == nil && want.Steady != want.Baseline {
			branches["NaN spacing"]++
		}
		if c.name == "dt == 0" && werr == nil && want.Steady != want.Baseline {
			branches["dt == 0"]++
		}
	}
	for _, b := range []string{"too short", "step == 0", "smoothed", "unsmoothed", "NaN spacing", "dt == 0"} {
		if branches[b] == 0 {
			t.Errorf("no case exercised the %s branch (%v)", b, branches)
		}
	}
}

// TestStepScratchAllocs: a warm scratch analyzes without allocating,
// on the smoothing branch and off it.
func TestStepScratchAllocs(t *testing.T) {
	for _, n := range []int{121, 1200} {
		times := make([]float64, n)
		values := make([]float64, n)
		for i := range times {
			times[i] = float64(i) * 0.05
			if i >= n/3 {
				values[i] = 1 - math.Exp(-float64(i-n/3)*0.05/2)
			}
		}
		stim := times[n/3]
		var s StepScratch
		if _, err := s.Analyze(times, values, stim, 0.2); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(50, func() {
			if _, err := s.Analyze(times, values, stim, 0.2); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%d samples: warm Analyze allocated %g objects per run, want 0", n, a)
		}
	}
}
