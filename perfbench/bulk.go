package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"advdiag"
)

const (
	// bulkStreamLen is the number of samples in one stream request.
	bulkStreamLen = 1024
	// bulkDepth lets each shard's queue hold a whole stream, as labload
	// sizes it: the stream endpoint refuses every sample that does not
	// fit.
	bulkDepth = 2*bulkStreamLen + 2*clientConns
	// bulkWarmupStreams run before the window.
	bulkWarmupStreams = 1
	// bulkMaxRate bounds the panels/s a traced window preallocates
	// spans for; samples beyond it go untraced.
	bulkMaxRate = 6000
)

// bulkRun is what one bulk_stream window measured.
type bulkRun struct {
	cfg      runConfig
	setups   []float64
	start    time.Time
	elapsed  time.Duration
	win      window
	before   advdiag.FleetStats
	after    advdiag.FleetStats
	latMS    []float64 // per windowed panel: stream start to its outcome
	kernel   []time.Duration
	served   []servedPanel
	counts   counts
	streams  int
	tr       *tracer
	prof     *profile
	results  []advdiag.PanelOutcome
	sampleFn func(n int) advdiag.Sample
}

// runBulkStream measures the closed loop: one connection streams the
// mixed cohort through POST /v1/panels/stream in the binary codec,
// bulkStreamLen samples a request, back to back for the whole window.
func runBulkStream(cfg runConfig, traced bool) (*report, error) {
	rep := newReport(traced)
	base, err := bulkWindow(cfg, false)
	if err != nil {
		return nil, err
	}
	rep.add(base.counts)
	baseLat, baseTput := base.endToEnd(rep)
	if !traced {
		return rep, nil
	}
	tw, err := bulkWindow(cfg, true)
	if err != nil {
		return nil, err
	}
	rep.add(tw.counts)
	lat, tput := tw.endToEnd(newReport(false))
	rep.setOverhead(baseLat, lat, baseTput, tput)
	tw.perLayer(rep)
	if err := writeSpans(cfg, "bulk_stream", tw.tr.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// bulkWindow sets up, warms up, streams for the window, tears down and
// verifies every served panel.
func bulkWindow(cfg runConfig, traced bool) (*bulkRun, error) {
	sample := func(n int) advdiag.Sample { return panelSample(cfg.seed, n, true) }
	run := &bulkRun{cfg: cfg, sampleFn: sample}
	if traced {
		run.tr = newTracer((bulkWarmupStreams+1)*bulkStreamLen + int(cfg.seconds*bulkMaxRate))
	}
	sut, setups, err := setupPanelSUT(bulkDepth, advdiag.CodecBinary, run.tr)
	if err != nil {
		return nil, err
	}
	run.setups = setups
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*cfg.seconds+60)*time.Second)
	defer cancel()

	n := 0
	stream := func(windowed bool) error {
		samples := make([]advdiag.Sample, bulkStreamLen)
		for i := range samples {
			samples[i] = sample(n + i)
		}
		first := n
		n += len(samples)
		t0 := time.Now()
		return sut.client.StreamPanels(ctx, samples, func(seq int, o advdiag.PanelOutcome) {
			now := time.Now() // fn runs on this goroutine, between the stream's reads
			if !windowed {
				if o.Err == nil {
					run.served = append(run.served, servedPanel{n: first + seq, index: o.Index, fp: o.Result.Fingerprint()})
				} else {
					run.counts.errored++ // a failed warm-up panel fails the run below
				}
				return
			}
			run.counts.sent++
			switch {
			case o.Err != nil && strings.Contains(o.Err.Error(), advdiag.ErrFleetSaturated.Error()):
				run.counts.refused++
				run.latMS = append(run.latMS, cfg.seconds*1e3)
				return
			case o.Err != nil:
				run.counts.errored++
				run.latMS = append(run.latMS, cfg.seconds*1e3)
				return
			case o.ID != samples[seq].ID:
				run.counts.wrong++
				run.latMS = append(run.latMS, cfg.seconds*1e3)
				return
			}
			run.latMS = append(run.latMS, now.Sub(t0).Seconds()*1e3)
			run.kernel = append(run.kernel, time.Duration(o.WallSeconds*1e9))
			run.served = append(run.served, servedPanel{n: first + seq, index: o.Index, fp: o.Result.Fingerprint(), windowed: true})
			if run.tr != nil {
				if sp := run.tr.span(o.ID); sp != nil {
					sp.Done = int64(now.Sub(run.tr.base))
					sp.KernelNS = int64(o.WallSeconds * 1e9)
				}
				if len(run.results) < wireSamples {
					run.results = append(run.results, o)
				}
			}
		})
	}
	for i := 0; i < bulkWarmupStreams; i++ {
		if err := stream(false); err != nil {
			sut.close() //nolint:errcheck // reporting the stream failure instead
			return nil, fmt.Errorf("warm-up stream: %w", err)
		}
	}
	if run.counts.errored > 0 {
		sut.close() //nolint:errcheck // reporting the warm-up failure instead
		return nil, fmt.Errorf("%d warm-up panels failed", run.counts.errored)
	}

	run.before = sut.fleet.Stats()
	if traced {
		run.prof = startProfile()
	}
	m := startMeter()
	run.start = time.Now()
	for time.Since(run.start) < time.Duration(cfg.seconds*float64(time.Second)) {
		if err := stream(true); err != nil {
			sut.close() //nolint:errcheck // reporting the stream failure instead
			return nil, fmt.Errorf("stream %d: %w", run.streams, err)
		}
		run.streams++
	}
	run.elapsed = time.Since(run.start)
	run.win = m.stop()
	if run.prof != nil {
		run.prof.stop()
	}
	run.after = sut.fleet.Stats()
	if err := sut.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}

	bad, warmBad, err := verifyPanels(run.served, sample)
	if err != nil {
		return nil, err
	}
	if warmBad > 0 {
		return nil, fmt.Errorf("%d warm-up panels differ from the local Lab replay", warmBad)
	}
	run.counts.wrong += bad
	run.counts.ok = run.counts.sent - run.counts.errored - run.counts.refused - run.counts.wrong
	return run, nil
}

// endToEnd records the window's end-to-end metrics and returns its
// median latency and throughput.
func (run *bulkRun) endToEnd(rep *report) (p50, tput float64) {
	completed := run.counts.sent - run.counts.errored - run.counts.refused
	rep.notef("latency = stream start to the panel's outcome")
	p50 = rep.setLatency(run.latMS, "panels")
	tput = float64(completed) / run.elapsed.Seconds()
	rep.set("setup_s", median(run.setups))
	rep.set("throughput_per_s", tput)
	rep.setPerOp(run.win, completed)
	rep.notef("closed loop: %d streams of %d mixed panels (1/3 metabolite, 1/3 drug, 1/3 full) over one connection, binary codec, queue depth %d",
		run.streams, bulkStreamLen, bulkDepth)
	rep.notef("setup_s is the median of %d setups: %v", len(run.setups), roundAll(run.setups))
	return p50, tput
}

// perLayer records the bulk per-layer metrics: routing from the Router
// wrapper, queue wait as Route return to outcome arrival minus kernel,
// and the runtime, wire and CPU splits.
func (run *bulkRun) perLayer(rep *report) {
	var route, queue, kernelUS []float64
	var kernelSum time.Duration
	for _, k := range run.kernel {
		kernelUS = append(kernelUS, float64(k)/1e3)
		kernelSum += k
	}
	for i := range run.tr.spans {
		sp := &run.tr.spans[i]
		if sp.R0 == 0 || sp.Done == 0 {
			continue
		}
		route = append(route, float64(sp.R1-sp.R0)/1e3)
		queue = append(queue, float64(sp.Done-sp.R1-sp.KernelNS)/1e3)
	}
	rep.set("router.route_us", median(route))
	rep.set("fleet.queue_wait_us", median(queue))
	rep.set("runtime.panel_us", median(kernelUS))
	rep.set("server.rejected", float64(run.counts.refused))
	rep.notef("router.route_us and fleet.queue_wait_us over %d traced panels (queue wait here is Route return to outcome arrival, minus kernel)", len(route))
	setFleetLayers(rep, run.before, run.after, run.win.wall, kernelSum)
	rep.setWire(run.results, run.sampleFn)
	if err := rep.setCPU(run.cfg, "bulk_stream", run.prof); err != nil {
		rep.failf("%v", err)
	}
}
