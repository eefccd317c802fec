package advdiag

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"advdiag/internal/conc"
	rt "advdiag/internal/runtime"
	"advdiag/internal/schedule"
)

// Sample is one specimen queued for a panel: an identifier (patient,
// tube, time point) plus the target concentrations in mM.
type Sample struct {
	// ID labels the sample in results; the Fleet's consistent-hash
	// router also keys on it (same ID → same shard), but it carries no
	// other semantics.
	ID string
	// Concentrations maps species name → mM. The same validation as
	// Platform.RunPanel applies: finite, non-negative, known species.
	Concentrations map[string]float64
}

// PanelOutcome is the Lab's result for one sample.
type PanelOutcome struct {
	// Index is the sample's position in the batch (RunPanels) or, in a
	// Fleet, its fleet-wide submission order. It also seeds the panel's
	// noise stream, which is why outcomes are byte-identical at any
	// worker count — and, in a Fleet, at any shard count.
	Index int
	// ID echoes the sample ID.
	ID string
	// Shard is the index of the Fleet shard that ran the panel (0 for
	// a plain Lab).
	Shard int
	// Result is the panel; valid only when Err is nil.
	Result PanelResult
	// Err is the per-sample failure; other samples are unaffected.
	Err error
	// ScheduledStartSeconds is when this panel starts on the physical
	// instrument's timeline: back-to-back cycles of the platform's
	// acquisition schedule (position × schedule cycle time; in a Fleet
	// the position is per-shard, since each shard is its own
	// instrument).
	ScheduledStartSeconds float64
	// WallSeconds is the simulation wall-clock cost of this panel.
	WallSeconds float64
}

// Lab is a reusable, concurrent panel runner over a designed Platform —
// the run-time counterpart of the design-time explorer. A Lab
// precomputes the platform's per-electrode calibration state once (unit
// voltammetric templates, Michaelis–Menten inversion constants) and
// then runs batches of panels on a bounded set of workers. All
// execution logic lives in internal/runtime; the Lab adds batching,
// scheduling and statistics.
//
// Concurrency model: every panel run builds its own measurement engine
// (NewEngine is cheap), seeded deterministically from the lab seed and
// the sample index, honouring the one-engine-per-goroutine contract.
// No mutable state is shared between in-flight panels except the
// read-only calibration cache and the stats counters, so results are
// byte-identical at any worker count — PanelResult.Fingerprint proves
// it.
//
// A Lab is batch-only: RunPanels returns results in sample order. For
// samples that arrive over time (Submit/Results), use a Fleet — a
// one-shard Fleet over the same platform yields the same outcomes.
type Lab struct {
	p       *Platform
	workers int
	seed    uint64
	plan    *schedule.Plan

	// statMu guards the aggregate stats below.
	statMu          sync.Mutex
	panels          uint64
	failures        uint64
	monitors        uint64
	monitorFailures uint64
	firstStart      time.Time
	lastEnd         time.Time
}

// LabOption customizes a Lab.
type LabOption func(*Lab)

// WithLabWorkers sets the panel concurrency; 0 (the default) uses one
// worker per available CPU. The worker count changes wall-clock time
// only, never results.
func WithLabWorkers(n int) LabOption {
	return func(l *Lab) { l.workers = n }
}

// WithLabSeed sets the base noise seed samples derive their per-panel
// seeds from (default: the platform seed). Each sample mixes its index
// into this base, so every panel is an independent reproducible draw.
func WithLabSeed(seed uint64) LabOption {
	return func(l *Lab) { l.seed = seed }
}

// NewLab builds a Lab over a designed platform and warms the
// calibration cache: every electrode's calibration state (including the
// expensive unit-template diffusion simulations for voltammetric
// electrodes) is computed here, once, so the serving path only ever
// reads it.
func NewLab(p *Platform, opts ...LabOption) (*Lab, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("advdiag: NewLab needs a designed platform")
	}
	l := &Lab{p: p, seed: p.seed, plan: p.inner.Plan}
	for _, opt := range opts {
		opt(l)
	}
	if l.workers <= 0 {
		l.workers = runtime.NumCPU()
	}
	if err := p.exec.Warm(); err != nil {
		return nil, err
	}
	return l, nil
}

// Workers reports the pool size.
func (l *Lab) Workers() int { return l.workers }

// labBatchMax bounds how many panels one coalesced batch runs over a
// single executor scratch. Large enough to amortize the scratch's cell,
// engine and chain reuse across a whole queue burst, small enough that
// a batch never holds a worker for more than a handful of panels at a
// time.
const labBatchMax = 16

// runBatch executes a coalesced run of at most labBatchMax panel jobs
// over one executor scratch and writes the outcome for jobs[i] into
// out[i]. Each job's seedIdx picks its deterministic noise stream (in a
// Fleet the fleet-wide submission index, which is what makes results
// independent of sharding) and its schedIdx its slot on this platform's
// instrument timeline. fault, when non-nil, is an injected electrode
// fouling (a Fleet shard with a FaultFouledElectrode armed); direct Lab
// traffic always passes nil.
//
// Every panel is bit-identical to a standalone run of the same sample
// and seed (the batch kernel reuses allocations, never noise streams);
// the aggregate stats advance once per batch, and WallSeconds reports
// the batch's wall-clock cost spread evenly across its panels, since
// the shared scratch makes per-panel attribution meaningless.
func (l *Lab) runBatch(jobs []fleetJob, fault *rt.Fouling, out []PanelOutcome) {
	var (
		concs  [labBatchMax]map[string]float64
		seeds  [labBatchMax]uint64
		panels [labBatchMax]rt.Panel
		errs   [labBatchMax]error
	)
	n := len(jobs)
	start := time.Now()
	for i, j := range jobs {
		concs[i] = j.sample.Concentrations
		seeds[i] = rt.SampleSeed(l.seed, j.seedIdx)
	}
	l.p.exec.RunBatch(concs[:n], seeds[:n], fault, panels[:n], errs[:n])
	end := time.Now()

	per := end.Sub(start).Seconds() / float64(n)
	var failures uint64
	for i, j := range jobs {
		o := PanelOutcome{
			Index:                 j.seedIdx,
			ID:                    j.sample.ID,
			Err:                   errs[i],
			ScheduledStartSeconds: float64(j.schedIdx) * l.plan.CycleTime(),
			WallSeconds:           per,
		}
		if errs[i] == nil {
			o.Result = panelResult(panels[i])
		} else {
			failures++
		}
		out[i] = o
	}

	l.statMu.Lock()
	l.panels += uint64(n)
	l.failures += failures
	if l.firstStart.IsZero() || start.Before(l.firstStart) {
		l.firstStart = start
	}
	if end.After(l.lastEnd) {
		l.lastEnd = end
	}
	l.statMu.Unlock()
}

// RunPanels measures a batch of samples on the worker pool and returns
// one outcome per sample, in sample order. Per-sample failures land in
// the outcome's Err; the rest of the batch is unaffected.
//
// Samples run in contiguous chunks so each chunk shares one executor
// scratch (cell, engine, chains, trace arena — see runtime.RunBatch);
// results are byte-identical to one-panel-at-a-time execution at any
// worker count, because each panel's noise stream derives only from its
// sample index. Each outcome's WallSeconds is its chunk's wall time
// spread evenly over the chunk.
func (l *Lab) RunPanels(samples []Sample) []PanelOutcome {
	n := len(samples)
	out := make([]PanelOutcome, n)
	if n == 0 {
		return out
	}
	chunk := n / l.workers
	if chunk < 1 {
		chunk = 1
	}
	if chunk > labBatchMax {
		chunk = labBatchMax
	}
	nChunks := (n + chunk - 1) / chunk
	conc.ForEach(nChunks, l.workers, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var jobs [labBatchMax]fleetJob
		for j := lo; j < hi; j++ {
			jobs[j-lo] = fleetJob{seedIdx: j, schedIdx: j, sample: samples[j]}
		}
		l.runBatch(jobs[:hi-lo], nil, out[lo:hi])
	})
	return out
}

// Close is a no-op that returns nil: a Lab holds no goroutines, queues
// or other resources between RunPanels calls. It is safe to call any
// number of times.
func (l *Lab) Close() error { return nil }

// LabStats is an aggregate snapshot of a Lab's service counters.
type LabStats struct {
	// Workers is the pool size.
	Workers int
	// PanelsRun counts finished panels (including failed ones);
	// Failures counts the failed subset.
	PanelsRun, Failures uint64
	// MonitorsRun counts finished monitoring acquisitions (including
	// failed ones); MonitorFailures the failed subset.
	MonitorsRun, MonitorFailures uint64
	// CacheHits/CacheMisses count calibration-cache lookups on the
	// underlying platform (warm-up computations are the misses).
	CacheHits, CacheMisses uint64
	// CacheHitRate is CacheHits over all lookups (0 when none).
	CacheHitRate float64
	// WallSeconds spans the first panel start to the last panel end.
	WallSeconds float64
	// PanelsPerSecond is PanelsRun over WallSeconds (simulation
	// throughput, not instrument throughput).
	PanelsPerSecond float64
	// PanelSeconds and CycleSeconds come from the platform's
	// acquisition schedule; InstrumentPanelsPerHour is the physical
	// instrument's ceiling (schedule.Plan.Throughput).
	PanelSeconds, CycleSeconds float64
	InstrumentPanelsPerHour    float64
}

// String renders the snapshot as one report line.
func (s LabStats) String() string {
	return fmt.Sprintf("lab: %d workers, %d panels (%d failed), %.1f panels/s wall, cache %.0f%% hit (%d/%d), instrument %.1f panels/h",
		s.Workers, s.PanelsRun, s.Failures, s.PanelsPerSecond,
		100*s.CacheHitRate, s.CacheHits, s.CacheHits+s.CacheMisses,
		s.InstrumentPanelsPerHour)
}

// Stats returns the current aggregate counters.
func (l *Lab) Stats() LabStats {
	hits, misses := l.p.exec.CacheCounts()
	st := LabStats{
		Workers:                 l.workers,
		CacheHits:               hits,
		CacheMisses:             misses,
		PanelSeconds:            l.plan.PanelTime(),
		CycleSeconds:            l.plan.CycleTime(),
		InstrumentPanelsPerHour: l.plan.Throughput(),
	}
	if hits+misses > 0 {
		st.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	l.statMu.Lock()
	st.PanelsRun, st.Failures = l.panels, l.failures
	st.MonitorsRun, st.MonitorFailures = l.monitors, l.monitorFailures
	if !l.firstStart.IsZero() {
		st.WallSeconds = l.lastEnd.Sub(l.firstStart).Seconds()
	}
	l.statMu.Unlock()
	if st.WallSeconds > 0 {
		st.PanelsPerSecond = float64(st.PanelsRun) / st.WallSeconds
	}
	return st
}
