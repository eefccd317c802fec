// Benchmarks for the run-time hot paths: one designed Fig. 4 platform,
// repeated panel executions and monitor ticks. The panel numbers are
// the ones BENCH_PR3.json tracks (see README §Performance).
package advdiag_test

import (
	"testing"

	"advdiag"
)

// fig4Targets is the paper's §III demonstrator panel.
var fig4PanelTargets = []string{
	"glucose", "lactate", "glutamate",
	"benzphetamine", "aminopyrine", "cholesterol",
}

var fig4PanelSample = map[string]float64{
	"glucose":       2.0,
	"lactate":       1.0,
	"glutamate":     1.0,
	"benzphetamine": 0.8,
	"aminopyrine":   4.0,
	"cholesterol":   0.05,
}

// BenchmarkRunPanelFig4 measures one full six-target panel on a
// pre-designed, calibration-warm platform — the per-sample cost the
// Lab service pays in steady state.
func BenchmarkRunPanelFig4(b *testing.B) {
	p, err := advdiag.DesignPlatform(fig4PanelTargets, advdiag.WithPlatformSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	samples := []advdiag.Sample{{ID: "bench", Concentrations: fig4PanelSample}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := lab.RunPanels(samples)
		if out[0].Err != nil {
			b.Fatal(out[0].Err)
		}
	}
}

// monitorTickRequest is one cohort-shaped monitor tick: a 6 s
// two-phase trace with a 2 s baseline and no injection — the shape
// MonitorScheduler campaigns submit.
func monitorTickRequest() advdiag.MonitorRequest {
	return advdiag.MonitorRequest{
		ID: "bench", Target: "glucose", ConcentrationMM: 2,
		DurationSeconds: 6, BaselineSeconds: 2, AgeHours: 20,
		Seed: advdiag.MonitorSeed(7, "bench", 1),
	}
}

// BenchmarkRunMonitorTick measures one cohort-shaped monitor tick on a
// calibration-warm Fig. 4 platform — the per-tick kernel cost behind
// MonitorScheduler cohorts.
func BenchmarkRunMonitorTick(b *testing.B) {
	p, err := advdiag.DesignPlatform(fig4PanelTargets, advdiag.WithPlatformSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	req := monitorTickRequest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := lab.RunMonitor(req); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
