package signalproc

import (
	"math"

	"advdiag/internal/mathx"
)

// StepResponse summarizes a transient that settles toward a steady
// state after a stimulus (paper §II-B and Fig. 3).
type StepResponse struct {
	// Baseline is the pre-stimulus level.
	Baseline float64
	// Steady is the settled level (mean of the final tail).
	Steady float64
	// T90 is the time (from the stimulus) to reach 90 % of the step,
	// the paper's "steady-state response time".
	T90 float64
	// TTransient is the time (from the stimulus) at which the first
	// derivative of the signal is maximal, the paper's "transient
	// response time".
	TTransient float64
	// Settled reports whether the tail is flat enough to be considered
	// steady (see settled for the test).
	Settled bool
}

// AnalyzeStep characterizes a step response. times/values are the
// sampled signal, stimulusTime the moment the analyte was added.
// tailFrac is the final fraction of the series treated as steady state
// (e.g. 0.2).
func AnalyzeStep(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	if len(times) != len(values) || len(values) < 8 {
		return StepResponse{}, ErrTooShort
	}
	var resp StepResponse

	// Baseline: mean of samples strictly before the stimulus.
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

	// Steady state: mean of the final tail.
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

	// t90: first crossing of baseline + 0.9·step after the stimulus.
	// The raw trace carries the blank noise of the sensor, which biases
	// threshold crossings early; smooth with a centered window (~2.5 %
	// of the record) before timing, as an experimenter would.
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
			resp.Settled = settled(tailTimes, tail, step, resp.T90, stimulusTime)
		}
		// Transient response time: max |dV/dt| after the stimulus.
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

// settleTolerance is the tail drift, as a fraction of the step, below
// which a step response counts as settled.
const settleTolerance = 0.02

// settled reports whether a step response has reached its steady
// state over the tail. Both must hold:
//
//   - model: a first-order response with the measured t90 (time
//     constant τ = t90/ln 10) still drifts by less than settleTolerance
//     of the step between the tail's first and last sample;
//   - data: the least-squares drift over the tail is below
//     settleTolerance of the step plus three standard errors of that
//     drift, so white noise on a flat tail does not fail the test.
//
// The model term rejects a trace cut off while still rising even when
// the noise hides its slope; the data term rejects a tail that moves
// for any other reason. A trace whose t90 could not be measured is not
// settled.
func settled(tailTimes, tail []float64, step, t90, stimulusTime float64) bool {
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
	// Standard error of the fitted drift slope·(t1 − t0):
	// √(Σr²/(n−2) / Σ(t − t̄)²)·(t1 − t0).
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
