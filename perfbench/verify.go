package main

import (
	"fmt"
	"runtime"

	"advdiag"
)

// servedPanel is one accepted panel as the client received it.
type servedPanel struct {
	n        int    // sample number (the ID the benchmark assigned)
	index    int    // fleet submission index, which seeds the panel
	fp       uint64 // PanelResult.Fingerprint of the served result
	windowed bool   // inside the timed window (warm-up panels are checked too)
}

// verifyPanels replays every served panel on a local Lab over a freshly
// designed platform and diffs fingerprints. A fleet seeds each panel
// from its submission index alone, so Lab.RunPanels over the samples
// laid out by index reproduces every served result bit for bit. It
// returns the mismatches inside and outside the timed window.
func verifyPanels(served []servedPanel, sample func(n int) advdiag.Sample) (inWindow, outside int, err error) {
	if len(served) == 0 {
		return 0, 0, nil
	}
	top := 0
	for _, s := range served {
		top = max(top, s.index+1)
	}
	byIndex := make([]*servedPanel, top)
	for i := range served {
		s := &served[i]
		if s.index < 0 || byIndex[s.index] != nil {
			return 0, 0, fmt.Errorf("sample %d: fleet index %d is invalid or duplicated", s.n, s.index)
		}
		byIndex[s.index] = s
	}
	// Indices with no served panel (none are expected: the server is
	// the fleet's only submitter) still need a sample to keep every
	// later index in place; their results are not compared.
	samples := make([]advdiag.Sample, top)
	for i, s := range byIndex {
		if s != nil {
			samples[i] = sample(s.n)
		} else {
			samples[i] = sample(served[0].n)
		}
	}
	p, err := designFig4()
	if err != nil {
		return 0, 0, err
	}
	lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		return 0, 0, err
	}
	defer lab.Close() //nolint:errcheck // RunPanels-only lab: nothing to drain
	for i, o := range lab.RunPanels(samples) {
		s := byIndex[i]
		if s == nil {
			continue
		}
		if o.Err != nil || o.Result.Fingerprint() != s.fp {
			if s.windowed {
				inWindow++
			} else {
				outside++
			}
		}
	}
	return inWindow, outside, nil
}
