package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"advdiag"
)

const (
	// interactiveRate is the offered load in panels/s: a quarter of the
	// closed-loop capacity of the deployment on a quiet 2-CPU host
	// (about 1200 panels/s), so queues stay short even when the host
	// loses half its CPU time. It is a constant, never derived at run
	// time.
	interactiveRate = 300.0
	// interactiveWarmup requests run closed-loop before the window.
	interactiveWarmup = 200
	// lateGaps is how many mean inter-arrival gaps the generator's
	// lateness p99 may reach before a window is discarded. The generator
	// shares both CPUs with the shard workers, and a panel holds a Go P
	// for over a millisecond, so a sender that wakes while both Ps run
	// panels waits for one, and a sender on a vCPU the hypervisor pauses
	// wakes late by the pause: on a shared 2-CPU host the p99 reached
	// 14.5 ms under 35% CPU steal. Six gaps (20 ms) still flags a
	// generator that cannot keep pace.
	lateGaps = 6
	// windowAttempts bounds how often a window whose generator ran late
	// is discarded and run again.
	windowAttempts = 2
)

// Request outcome classes.
const (
	classOK = iota
	classErrored
	classRefused
	classWrong
)

// reqRecord is one request of the open loop, on the window's clock.
type reqRecord struct {
	due, free, send, done time.Duration
	index                 int
	fp                    uint64
	kernel                time.Duration
	class                 int
}

// panelRun is what one interactive window measured.
type panelRun struct {
	cfg     runConfig
	setups  []float64
	seconds float64
	start   time.Time
	records []reqRecord
	served  []servedPanel
	win     window
	before  advdiag.FleetStats
	after   advdiag.FleetStats
	tr      *tracer
	prof    *profile
	counts  counts
	late    bool // the generator missed its schedule; wall-clock figures are invalid

	// results keeps the first wireSamples outcomes of a traced window
	// for pricing the codecs; sampleFn regenerates their samples.
	results  []advdiag.PanelOutcome
	sampleFn func(n int) advdiag.Sample
}

// wireSamples is how many of a workload's own panels price the codecs.
const wireSamples = 512

// runInteractive measures the open loop: seeded Poisson arrivals of
// single-sample JSON POST /v1/panels requests at interactiveRate over
// at most two keep-alive connections, each timed from when it was due.
func runInteractive(cfg runConfig, traced bool) (*report, error) {
	rep := newReport(traced)
	base, err := validWindow(cfg, false, rep)
	if err != nil {
		return nil, err
	}
	baseLat, baseTput := base.endToEnd(rep, cfg)
	if !traced {
		return rep, nil
	}
	tw, err := validWindow(cfg, true, rep)
	if err != nil {
		return nil, err
	}
	lat, tput := tw.endToEnd(newReport(false), cfg)
	if !base.late && !tw.late {
		rep.setOverhead(baseLat, lat, baseTput, tput)
	}
	tw.perLayer(rep)
	if err := writeSpans(cfg, "interactive", tw.tr.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// validWindow runs interactive windows until the generator kept its
// schedule — lateness p99 within lateGaps mean inter-arrival gaps — and
// returns that window. A late window's numbers are discarded (its
// outputs still count as checked); when all windowAttempts windows ran
// late, the last one is returned marked late, and its wall-clock
// figures are not reported.
func validWindow(cfg runConfig, traced bool, rep *report) (*panelRun, error) {
	limitMS := lateGaps * 1e3 / interactiveRate
	for attempt := 1; ; attempt++ {
		run, err := interactiveWindow(cfg, traced)
		if err != nil {
			return nil, err
		}
		rep.add(run.counts)
		lag := run.lagP99()
		if lag <= limitMS {
			return run, nil
		}
		msg := fmt.Sprintf("generator lateness p99 %.3f ms exceeds %d mean inter-arrival gaps (%.3f ms)", lag, lateGaps, limitMS)
		if attempt == windowAttempts {
			rep.notef("INVALID wall-clock figures: %s in all %d windows; latency and throughput are not reported", msg, attempt)
			run.late = true
			return run, nil
		}
		rep.notef("window %d discarded: %s", attempt, msg)
	}
}

// lagP99 is the generator's lateness p99 in milliseconds: send time
// minus the later of due time and the sender becoming free.
func (run *panelRun) lagP99() float64 {
	lag := make([]float64, len(run.records))
	for i, rec := range run.records {
		lag[i] = float64(rec.send-max(rec.due, rec.free)) / 1e6
	}
	return percentile(lag, 0.99)
}

// interactiveWindow sets up, warms up, runs one timed open-loop window,
// tears down and verifies every served panel.
func interactiveWindow(cfg runConfig, traced bool) (*panelRun, error) {
	// The arrival schedule: exponential gaps at interactiveRate.
	rng := rand.New(rand.NewPCG(cfg.seed, 0x1a7e))
	var dues []time.Duration
	for t := rng.ExpFloat64() / interactiveRate; t < cfg.seconds; t += rng.ExpFloat64() / interactiveRate {
		dues = append(dues, time.Duration(t*1e9))
	}
	sample := func(n int) advdiag.Sample { return panelSample(cfg.seed, n, false) }
	run := &panelRun{cfg: cfg, seconds: cfg.seconds, records: make([]reqRecord, len(dues)), sampleFn: sample}
	if traced {
		run.tr = newTracer(interactiveWarmup + len(dues))
	}
	sut, setups, err := setupPanelSUT(sutDepth, advdiag.CodecJSON, run.tr)
	if err != nil {
		return nil, err
	}
	run.setups = setups
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*cfg.seconds+60)*time.Second)
	defer cancel()
	var resMu sync.Mutex
	send := func(n int) (advdiag.PanelOutcome, int) {
		s := sample(n)
		rctx := ctx
		if run.tr != nil {
			rctx = withSpan(ctx, s.ID)
		}
		o, err := sut.client.RunPanel(rctx, s)
		switch {
		case errors.Is(err, advdiag.ErrFleetSaturated):
			return o, classRefused
		case err != nil || o.Err != nil:
			return o, classErrored
		case o.ID != s.ID:
			return o, classWrong
		}
		if run.tr != nil {
			resMu.Lock()
			if len(run.results) < wireSamples {
				run.results = append(run.results, o)
			}
			resMu.Unlock()
		}
		return o, classOK
	}

	// Warm-up: the same requests, closed loop, outside the window.
	var warm []servedPanel
	var warmMu sync.Mutex
	var warmErr atomic.Int64
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < interactiveWarmup; n = int(next.Add(1)) - 1 {
				o, class := send(n)
				if class != classOK {
					warmErr.Add(1)
					continue
				}
				warmMu.Lock()
				warm = append(warm, servedPanel{n: n, index: o.Index, fp: o.Result.Fingerprint()})
				warmMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if warmErr.Load() > 0 {
		sut.close() //nolint:errcheck // reporting the warm-up failure instead
		return nil, fmt.Errorf("%d warm-up requests failed", warmErr.Load())
	}

	// The timed window: clientConns senders take requests in due order;
	// a sender that is free early sleeps until the request is due.
	run.before = sut.fleet.Stats()
	if traced {
		run.prof = startProfile()
	}
	m := startMeter()
	start := time.Now()
	run.start = start
	next.Store(0)
	for g := 0; g < clientConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(dues); k = int(next.Add(1)) - 1 {
				rec := &run.records[k]
				rec.due = dues[k]
				rec.free = time.Since(start)
				sleepUntil(start.Add(rec.due))
				rec.send = time.Since(start)
				o, class := send(interactiveWarmup + k)
				rec.done = time.Since(start)
				rec.class, rec.index, rec.kernel = class, o.Index, time.Duration(o.WallSeconds*1e9)
				if class == classOK {
					rec.fp = o.Result.Fingerprint()
				}
			}
		}()
	}
	wg.Wait()
	run.win = m.stop()
	if run.prof != nil {
		run.prof.stop()
	}
	run.after = sut.fleet.Stats()
	if err := sut.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}

	run.served = warm
	run.counts.sent = len(dues)
	for k, rec := range run.records {
		switch rec.class {
		case classOK:
			run.served = append(run.served, servedPanel{n: interactiveWarmup + k, index: rec.index, fp: rec.fp, windowed: true})
		case classErrored:
			run.counts.errored++
		case classRefused:
			run.counts.refused++
		case classWrong:
			run.counts.wrong++
		}
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

// endToEnd records the window's end-to-end metrics and run record, and
// returns its median latency and throughput for the overhead figures.
func (run *panelRun) endToEnd(rep *report, cfg runConfig) (p50, tput float64) {
	n := len(run.records)
	lat := make([]float64, 0, n)
	var last time.Duration
	completed := 0
	for _, rec := range run.records {
		if rec.class != classOK {
			// A failed or refused request misses every latency limit.
			lat = append(lat, run.seconds*1e3)
			continue
		}
		lat = append(lat, float64(rec.done-rec.due)/1e6)
		last = max(last, rec.done)
		completed++
	}
	p50 = rep.setLatency(lat, "requests")
	if completed > 0 {
		tput = float64(completed) / last.Seconds()
	}
	if run.late {
		for _, m := range []string{"latency_p50_ms", "latency_p90_ms", "latency_p99_ms"} {
			delete(rep.values, m)
		}
	} else {
		rep.set("throughput_per_s", tput)
	}
	rep.set("setup_s", median(run.setups))
	rep.setPerOp(run.win, completed)
	rep.notef("offered %.0f panels/s open loop over %d connections; %d requests due in %.0f s (%.1f panels/s offered by this seed)",
		interactiveRate, clientConns, n, cfg.seconds, float64(n)/cfg.seconds)
	rep.notef("generator lateness p99 %.3f ms (limit: %d mean inter-arrival gaps, %.3f ms)", run.lagP99(), lateGaps, lateGaps*1e3/interactiveRate)
	rep.notef("setup_s is the median of %d setups: %v", len(run.setups), roundAll(run.setups))
	return p50, tput
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until
// the deadline. The Go timer path wakes through the netpoller, whose
// epoll timeout has millisecond resolution; a high-resolution sleep
// keeps the open loop's sends on schedule.
func sleepUntil(deadline time.Time) {
	for d := time.Until(deadline); d > 0; d = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-arms
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4g", x)
	}
	return out
}
