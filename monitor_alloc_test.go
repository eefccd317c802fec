// The race detector makes sync.Pool drop pooled values at random, so
// allocation ceilings over pooled paths only hold in normal builds.

//go:build !race

package advdiag_test

import (
	"testing"

	"advdiag"
)

// TestRunMonitorTickAllocs pins the monitor lane's allocation ceiling:
// a warm Lab.RunMonitor of a cohort-shaped tick reuses the pooled cell,
// engine, chain, trace arena and analysis buffers, so what remains is
// the caller-owned series allocation and the acquisition's result
// header.
func TestRunMonitorTickAllocs(t *testing.T) {
	p, err := advdiag.DesignPlatform(monitorPinTargets, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	req := monitorTickRequest()
	if out := lab.RunMonitor(req); out.Err != nil {
		t.Fatal(out.Err)
	}
	a := testing.AllocsPerRun(50, func() {
		if out := lab.RunMonitor(req); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	if a > 2 {
		t.Fatalf("warm monitor tick allocated %g objects per run, want ≤ 2", a)
	}
}
