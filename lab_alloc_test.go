// The race detector makes sync.Pool drop pooled values at random, so
// allocation ceilings over pooled paths only hold in normal builds.

//go:build !race

package advdiag

import "testing"

// TestRunBatchSingleJobAllocs pins the allocation ceiling of the path
// every served single-sample panel takes: a warm one-job Lab.runBatch
// on the paper's six-target Fig. 4 panel. The batch bookkeeping lives
// in fixed arrays, so what remains is the kernel's own per-panel work
// and the outcome's readings.
func TestRunBatchSingleJobAllocs(t *testing.T) {
	p, err := DesignPlatform([]string{
		"glucose", "lactate", "glutamate",
		"benzphetamine", "aminopyrine", "cholesterol",
	}, WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := NewLab(p, WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []fleetJob{{sample: Sample{ID: "fig4", Concentrations: map[string]float64{
		"glucose":       2.0,
		"lactate":       1.0,
		"glutamate":     1.0,
		"benzphetamine": 0.8,
		"aminopyrine":   4.0,
		"cholesterol":   0.05,
	}}}}
	out := make([]PanelOutcome, 1)
	lab.runBatch(jobs, nil, out)
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	a := testing.AllocsPerRun(50, func() {
		lab.runBatch(jobs, nil, out)
		if out[0].Err != nil {
			t.Fatal(out[0].Err)
		}
	})
	if a > 26 {
		t.Fatalf("warm one-job runBatch allocated %g objects per run, want ≤ 26", a)
	}
}
