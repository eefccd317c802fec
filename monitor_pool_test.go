package advdiag_test

import (
	"testing"

	"advdiag"
)

// monitorPinTargets are the oxidase (chronoamperometric) targets of the
// paper's Fig. 4 demonstrator — every target the monitor lane serves.
var monitorPinTargets = []string{"glucose", "lactate", "glutamate"}

// monitorPinRequests covers the request shapes the monitor lane runs:
// cohort ticks (two-phase, short), aged and polymer films, Fig. 3
// injection runs with one and two boluses, and a default-length run.
func monitorPinRequests() []advdiag.MonitorRequest {
	return []advdiag.MonitorRequest{
		{ID: "tick", Target: "glucose", ConcentrationMM: 2.5, DurationSeconds: 6, BaselineSeconds: 2,
			Seed: advdiag.MonitorSeed(7, "tick", 0)},
		{ID: "aged", Target: "lactate", ConcentrationMM: 1.2, DurationSeconds: 6, BaselineSeconds: 2,
			AgeHours: 40, Seed: advdiag.MonitorSeed(7, "aged", 2)},
		{ID: "polymer", Target: "glutamate", ConcentrationMM: 3, DurationSeconds: 30, BaselineSeconds: 5,
			AgeHours: 400, Polymer: true, Seed: advdiag.MonitorSeed(7, "polymer", 5)},
		{ID: "inject", Target: "glucose", DurationSeconds: 30,
			Injections: []advdiag.InjectionEvent{{AtSeconds: 5, DeltaMM: 1}}, Seed: advdiag.MonitorSeed(7, "inject", 1)},
		{ID: "double", Target: "lactate", ConcentrationMM: 0.5, DurationSeconds: 60,
			Injections: []advdiag.InjectionEvent{{AtSeconds: 30, DeltaMM: 0.5}, {AtSeconds: 10, DeltaMM: 1}},
			Seed:       advdiag.MonitorSeed(7, "double", 3)},
		{ID: "default", Target: "glutamate", ConcentrationMM: 2, Seed: advdiag.MonitorSeed(7, "default", 0)},
	}
}

// TestMonitorFingerprintsPinned holds the monitor lane's results to
// fixed values: every request's MonitorResult fingerprint, run twice on
// one Lab (a cold and a warm pooled scratch), and the cohort
// fingerprint of a 40-campaign scheduler run. Any change to the
// monitor kernel's arithmetic or noise streams moves these.
func TestMonitorFingerprintsPinned(t *testing.T) {
	want := []uint64{
		0xb66ed228a7b19f11,
		0xf6a7565d6547a563,
		0xba6dd38300fcc717,
		0xfd7646beb0f6c4bd,
		0x86f22ff32fcbdd9a,
		0x40eb7b721f325405,
	}
	const wantCohort = uint64(0xe9c08840f5c19b16)

	p, err := advdiag.DesignPlatform(monitorPinTargets, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, req := range monitorPinRequests() {
			out := lab.RunMonitor(req)
			if out.Err != nil {
				t.Fatalf("%s: %v", req.ID, out.Err)
			}
			if got := out.Result.Fingerprint(); got != want[i] {
				t.Errorf("pass %d, %s: fingerprint %#016x, want %#016x", pass, req.ID, got, want[i])
			}
		}
	}
	if got := runCohort(t, monitorCohort(40), 1, 1).Fingerprint(); got != wantCohort {
		t.Errorf("monitorCohort(40): fingerprint %#016x, want %#016x", got, wantCohort)
	}
}
