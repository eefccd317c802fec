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
// (e.g. 0.2). It is StepScratch.Analyze on a fresh scratch.
func AnalyzeStep(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	var s StepScratch
	return s.Analyze(times, values, stimulusTime, tailFrac)
}

// StepScratch holds the working buffers of a step analysis so that
// repeated analyses — one per monitor tick — reuse them instead of
// allocating. The zero value is ready to use. A StepScratch belongs to
// one goroutine; results never alias its buffers.
type StepScratch struct {
	post, postT, smooth []float64
}

// Analyze is AnalyzeStep over the scratch's buffers: the same
// arithmetic in the same order, so the result is bit-identical, and no
// allocation once the buffers have grown to the series length.
func (s *StepScratch) Analyze(times, values []float64, stimulusTime, tailFrac float64) (StepResponse, error) {
	if len(times) != len(values) || len(values) < 8 {
		return StepResponse{}, ErrTooShort
	}
	var resp StepResponse

	// Baseline: mean of samples strictly before the stimulus.
	preSum, nPre := 0.0, 0
	for i, t := range times {
		if t < stimulusTime {
			preSum += values[i]
			nPre++
		}
	}
	if nPre == 0 {
		resp.Baseline = values[0]
	} else {
		resp.Baseline = preSum / float64(nPre)
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
	s.post, s.postT = s.post[:0], s.postT[:0]
	for i, t := range times {
		if t >= stimulusTime {
			s.post = append(s.post, values[i])
			s.postT = append(s.postT, t)
		}
	}
	post, postT := s.post, s.postT
	if w := len(post) / 40; w >= 3 {
		if w%2 == 0 {
			w++
		}
		if w > 51 {
			w = 51
		}
		s.smooth = MovingAverageInto(s.smooth, post, w)
		post = s.smooth
	}
	if len(post) >= 2 {
		if tc, err := mathx.CrossingTime(postT, post, level); err == nil {
			resp.T90 = tc - stimulusTime
			resp.Settled = settled(tailTimes, tail, step, resp.T90, stimulusTime)
		}
		// Transient response time: max |dV/dt| after the stimulus — the
		// argmax of Derivative(post, dt), taken in index order without
		// materializing the derivative. Like Derivative, only a
		// non-positive spacing is refused; a NaN one runs (and leaves
		// the argmax at 0).
		if dt := postT[1] - postT[0]; !(dt <= 0) {
			last := len(post) - 1
			maxI, maxD := 0, 0.0
			for i := range post {
				var d float64
				switch i {
				case 0:
					d = (post[1] - post[0]) / dt
				case last:
					d = (post[last] - post[last-1]) / dt
				default:
					d = (post[i+1] - post[i-1]) / (2 * dt)
				}
				if a := abs(d); a > maxD {
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
	slope, intercept, _, err := mathx.LinearCoeffs(tailTimes, tail)
	if err != nil {
		return false
	}
	// Standard error of the fitted drift slope·(t1 − t0):
	// √(Σr²/(n−2) / Σ(t − t̄)²)·(t1 − t0), with the residuals r
	// recomputed in order.
	se := 0.0
	if n := len(tail); n > 2 {
		mt := mathx.Mean(tailTimes)
		var rss, sxx float64
		for i, y := range tail {
			r := y - (slope*tailTimes[i] + intercept)
			d := tailTimes[i] - mt
			rss += r * r
			sxx += d * d
		}
		se = math.Sqrt(rss/float64(n-2)/sxx) * (t1 - t0)
	}
	return abs(slope*(t1-t0)) < settleTolerance*abs(step)+3*se
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
