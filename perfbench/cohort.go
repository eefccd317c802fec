package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"advdiag"
)

const (
	// cohortSize is the number of campaigns in one cohort run.
	cohortSize = 20000
	// cohortWarmup campaigns run once before the window.
	cohortWarmup = 1000
	// campaignPrefix starts every campaign ID; the digits after it are
	// the campaign's number.
	campaignPrefix = 'c'
	// maxCampaignTicks bounds the ticks of one campaign (at most 60 h at
	// a 20 h cadence: 4 readings plus their recalibrations).
	maxCampaignTicks = 16
)

// cohortTargets are the monitorable metabolites of the Fig. 4 platform
// the population example uses (glutamate's 1.6 mM detection limit rules
// it out at physiologic levels).
var cohortTargets = []string{"glucose", "lactate"}

// cohortCampaigns builds n campaigns in the five examples/population
// shapes — plain, scheduled recal, polymer, drift recal, injection —
// with seeded concentrations and deployment lengths.
func cohortCampaigns(seed uint64, n int) []advdiag.MonitorCampaign {
	rng := rand.New(rand.NewPCG(seed, 0xc0407))
	base := map[string]float64{"glucose": 2.0, "lactate": 1.2}
	out := make([]advdiag.MonitorCampaign, n)
	for i := range out {
		tgt := cohortTargets[rng.IntN(len(cohortTargets))]
		c := advdiag.MonitorCampaign{
			ID:              fmt.Sprintf("%c%06d", campaignPrefix, i),
			Target:          tgt,
			SampleMM:        base[tgt] * (0.8 + 0.4*rng.Float64()),
			DurationHours:   float64(40 + 20*rng.IntN(2)),
			IntervalHours:   20,
			TraceSeconds:    6,
			BaselineSeconds: 2,
		}
		switch i % 5 {
		case 1:
			c.RecalEveryHours = 40
		case 2:
			c.Polymer = true
		case 3:
			c.RecalOnDrift = true
			c.DriftThresholdPct = 5
			c.DriftWindow = 2
		case 4:
			c.Injections = []advdiag.InjectionEvent{{AtSeconds: 3, DeltaMM: base[tgt] / 2}}
		}
		out[i] = c
	}
	return out
}

// runCohort drives one cohort to completion through a fresh scheduler.
func runCohort(backend advdiag.MonitorBackend, seed uint64, campaigns []advdiag.MonitorCampaign) (*advdiag.CohortReport, advdiag.MonitorSchedulerStats, error) {
	ms, err := advdiag.NewMonitorScheduler(backend, advdiag.WithSchedulerSeed(seed))
	if err != nil {
		return nil, advdiag.MonitorSchedulerStats{}, err
	}
	for _, c := range campaigns {
		if err := ms.Add(c); err != nil {
			return nil, advdiag.MonitorSchedulerStats{}, fmt.Errorf("campaign %s: %w", c.ID, err)
		}
	}
	rep, err := ms.Run()
	return rep, ms.Stats(), err
}

// cohortReference runs the cohort on a 1-shard × 1-worker fleet over a
// freshly designed platform: the result every timed run must equal.
func cohortReference(seed uint64, campaigns []advdiag.MonitorCampaign) (*advdiag.CohortReport, advdiag.MonitorSchedulerStats, error) {
	p, err := designFig4()
	if err != nil {
		return nil, advdiag.MonitorSchedulerStats{}, err
	}
	f, err := advdiag.NewFleet([]*advdiag.Platform{p}, advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(sutDepth))
	if err != nil {
		return nil, advdiag.MonitorSchedulerStats{}, err
	}
	defer f.Close() //nolint:errcheck // every tick was consumed by Run
	return runCohort(f, seed, campaigns)
}

// cohortRun is what one cohort_monitor window measured.
type cohortRun struct {
	cfg        runConfig
	setups     []float64
	win        window
	before     advdiag.FleetStats
	after      advdiag.FleetStats
	reps       int
	ticks      int
	shed       uint64
	last       advdiag.MonitorSchedulerStats
	cycleMS    []float64
	turnaround []float64
	submitUS   []float64
	kernelUS   []float64
	routeUS    []float64
	counts     counts
	prof       *profile
}

// runCohortMonitor measures an in-process MonitorScheduler driving a
// cohortSize-campaign cohort over the 2 × 1 fleet in virtual time, one
// cohort after another for the whole window, with no HTTP.
func runCohortMonitor(cfg runConfig, traced bool) (*report, error) {
	rep := newReport(traced)
	campaigns := cohortCampaigns(cfg.seed, cohortSize)
	t0 := time.Now()
	ref, refStats, err := cohortReference(cfg.seed, campaigns)
	if err != nil {
		return nil, fmt.Errorf("reference cohort: %w", err)
	}
	if n := ref.Failed(); n > 0 {
		return nil, fmt.Errorf("reference cohort: %d campaigns failed", n)
	}
	rep.notef("reference: 1 shard × 1 worker, %d campaigns, %d ticks, %d recals, %d drift flags, fingerprint %016x (%.1f s, outside the window)",
		len(campaigns), refStats.TicksCompleted, refStats.Recals, refStats.DriftFlags, ref.Fingerprint(), time.Since(t0).Seconds())

	base, err := cohortWindow(cfg, false, campaigns, ref, refStats, rep)
	if err != nil {
		return nil, err
	}
	rep.add(base.counts)
	baseTput := base.endToEnd(rep)
	if !traced {
		return rep, nil
	}
	tw, err := cohortWindow(cfg, true, campaigns, ref, refStats, rep)
	if err != nil {
		return nil, err
	}
	rep.add(tw.counts)
	tput := tw.endToEnd(newReport(false))
	baseLat, lat := median(base.cycleMS), median(tw.cycleMS)
	rep.setOverhead(baseLat, lat, baseTput, tput)
	tw.perLayer(rep)
	return rep, nil
}

// cohortWindow sets the fleet up, warms it with a small cohort, then
// runs whole cohorts back to back until the window has elapsed,
// checking each against the reference.
func cohortWindow(cfg runConfig, traced bool, campaigns []advdiag.MonitorCampaign,
	ref *advdiag.CohortReport, refStats advdiag.MonitorSchedulerStats, rep *report) (*cohortRun, error) {
	run := &cohortRun{cfg: cfg}
	var tr *tracer
	var router advdiag.Router = advdiag.LeastLoadedRouter{}
	if traced {
		tr = newTracer(0)
		router = &tracedRouter{inner: router, tr: tr}
	}
	// Setup for this workload is DesignPlatform plus NewFleet: the
	// scheduler drives the fleet in process, with no server.
	var fleet *advdiag.Fleet
	for i := 0; i < setupReps; i++ {
		if fleet != nil {
			if err := fleet.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		p, err := designFig4()
		if err != nil {
			return nil, err
		}
		if fleet, err = newFleet(p, sutDepth, router); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}
	defer fleet.Close() //nolint:errcheck // every tick was consumed by the scheduler runs

	warm, _, err := runCohort(fleet, cfg.seed^0x3a3a, cohortCampaigns(cfg.seed^0x3a3a, cohortWarmup))
	if err != nil {
		return nil, fmt.Errorf("warm-up cohort: %w", err)
	}
	if n := warm.Failed(); n > 0 {
		return nil, fmt.Errorf("warm-up cohort: %d campaigns failed", n)
	}
	if tr != nil {
		tr.monitorRoutes = tr.monitorRoutes[:0]
	}

	clock := newMonitorClock(fleet, len(campaigns), maxCampaignTicks, traced)
	run.before = fleet.Stats()
	if traced {
		run.prof = startProfile()
	}
	m := startMeter()
	start := time.Now()
	for run.reps == 0 || time.Since(start) < time.Duration(cfg.seconds*float64(time.Second)) {
		clear(clock.submit)
		if traced {
			clear(clock.done)
		}
		got, st, err := runCohort(clock, cfg.seed, campaigns)
		clock.close()
		if err != nil {
			return nil, fmt.Errorf("cohort %d: %w", run.reps, err)
		}
		run.reps++
		run.ticks += int(st.TicksCompleted)
		run.shed += st.Shed
		run.last = st
		run.counts.sent += int(st.TicksSubmitted)
		run.counts.errored += int(st.TickFailures)
		run.cycleMS = clock.cycleMS(run.cycleMS)
		if traced {
			run.turnaround = clock.turnaroundUS(run.turnaround)
		}
		run.checkCohort(rep, got, st, ref, refStats)
	}
	run.win = m.stop()
	if run.prof != nil {
		run.prof.stop()
	}
	run.after = fleet.Stats()
	if traced {
		for _, ns := range clock.submitNS {
			run.submitUS = append(run.submitUS, ns/1e3)
		}
		run.kernelUS = clock.kernelUS
		run.routeUS = tr.monitorRoutes
	}
	run.counts.ok = run.counts.sent - run.counts.errored - run.counts.wrong
	return run, nil
}

// checkCohort diffs one cohort run against the 1-shard reference:
// every campaign fingerprint, and the tick, recal and drift-flag
// counts. A differing campaign counts all of its ticks as wrong.
func (run *cohortRun) checkCohort(rep *report, got *advdiag.CohortReport, st advdiag.MonitorSchedulerStats,
	ref *advdiag.CohortReport, refStats advdiag.MonitorSchedulerStats) {
	if got.Fingerprint() == ref.Fingerprint() && len(got.Campaigns) == len(ref.Campaigns) {
		if st.TicksCompleted != refStats.TicksCompleted || st.Recals != refStats.Recals || st.DriftFlags != refStats.DriftFlags {
			rep.failf("cohort %d: %d ticks, %d recals, %d drift flags; the reference has %d, %d, %d",
				run.reps, st.TicksCompleted, st.Recals, st.DriftFlags, refStats.TicksCompleted, refStats.Recals, refStats.DriftFlags)
		}
		return
	}
	bad := 0
	for i, c := range got.Campaigns {
		if i >= len(ref.Campaigns) || c.ID != ref.Campaigns[i].ID || c.Fingerprint != ref.Campaigns[i].Fingerprint || c.Err != nil {
			run.counts.wrong += max(1, len(c.Readings)+c.Recals)
			bad++
		}
	}
	rep.failf("cohort %d: fingerprint %016x differs from the reference %016x (%d campaigns differ)",
		run.reps, got.Fingerprint(), ref.Fingerprint(), bad)
}

// endToEnd records the window's end-to-end metrics and returns its
// throughput. Latency is the campaign cycle time: one tick's
// submission to the same campaign's next submission.
func (run *cohortRun) endToEnd(rep *report) float64 {
	tput := float64(run.ticks) / run.win.wall.Seconds()
	rep.set("setup_s", median(run.setups))
	rep.notef("latency = campaign cycle time: one tick's submission to the campaign's next")
	rep.setLatency(run.cycleMS, "tick cycles")
	rep.set("throughput_per_s", tput)
	rep.setPerOp(run.win, run.ticks)
	rep.notef("%d cohorts of %d campaigns back to back, %d ticks in %.2f s (%.0f ticks/s), %d sheds",
		run.reps, cohortSize, run.ticks, run.win.wall.Seconds(), tput, run.shed)
	rep.notef("setup_s (DesignPlatform + NewFleet) is the median of %d setups: %v", len(run.setups), roundAll(run.setups))
	return tput
}

// perLayer records the cohort per-layer metrics from the traced
// MonitorBackend and Router wrappers, the Stats snapshots and the
// profile.
func (run *cohortRun) perLayer(rep *report) {
	rep.set("router.route_us", median(run.routeUS))
	rep.set("fleet.monitor_submit_us", median(run.submitUS))
	rep.set("fleet.monitor_turnaround_us", median(run.turnaround))
	rep.set("runtime.monitor_us", median(run.kernelUS))
	rep.set("scheduler.ticks", float64(run.last.TicksCompleted))
	rep.set("scheduler.recals", float64(run.last.Recals))
	rep.set("scheduler.drift_flags", float64(run.last.DriftFlags))
	rep.set("scheduler.shed", float64(run.shed)/float64(run.reps))
	rep.notef("scheduler.* are one cohort's counts (scheduler.shed is the mean over %d cohorts); monitor medians over %d ticks",
		run.reps, len(run.kernelUS))
	kernelSum := 0.0
	for _, k := range run.kernelUS {
		kernelSum += k
	}
	setFleetLayers(rep, run.before, run.after, run.win.wall, time.Duration(kernelSum*1e3))
	if err := rep.setCPU(run.cfg, "cohort_monitor", run.prof); err != nil {
		rep.failf("%v", err)
	}
}
