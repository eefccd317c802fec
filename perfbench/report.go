package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// endToEndMetrics are the metrics an untraced run reports, on every
// workload. Operation means a panel on the panel workloads and a
// monitor tick on cohort_monitor. Only these carry a regression bound,
// so they are the ones a shared host's CPU steal leaves steady: CPU
// time and allocations per operation, and the setup median.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
}

// perLayerMetrics are the metrics a traced run reports, on every
// workload. A layer the workload does not exercise reports 0. The
// wall-clock figures come first: measured in every run's untraced
// window and printed in its report, they move with the host's CPU
// steal by tens of percent between runs of unchanged code.
var perLayerMetrics = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"failed_frac", "ratio"},
	{"overhead.latency_p50_pct", "%"},
	{"overhead.throughput_pct", "%"},
	{"accounting.stage_sum_ratio", "ratio"},
	{"client.rtt_us.p50", "us"},
	{"client.rtt_us.p99", "us"},
	{"gen.lag_ms.p99", "ms"},
	{"gen.conn_wait_us", "us"},
	{"server.decode_us", "us"},
	{"server.wait_us", "us"},
	{"server.encode_us", "us"},
	{"server.rejected", "count"},
	{"wire.decode_us.json", "us"},
	{"wire.decode_us.binary", "us"},
	{"wire.encode_us.json", "us"},
	{"wire.encode_us.binary", "us"},
	{"wire.bytes_per_panel.json", "bytes"},
	{"wire.bytes_per_panel.binary", "bytes"},
	{"router.route_us", "us"},
	{"fleet.admit_wait_us", "us"},
	{"fleet.queue_wait_us", "us"},
	{"fleet.imbalance", "ratio"},
	{"fleet.monitor_submit_us", "us"},
	{"fleet.monitor_turnaround_us", "us"},
	{"runtime.panel_us", "us"},
	{"runtime.monitor_us", "us"},
	{"runtime.busy_frac", "ratio"},
	{"runtime.cache_hit_rate", "ratio"},
	{"cpu.diffusion", "%"},
	{"cpu.analog", "%"},
	{"cpu.mathx", "%"},
	{"cpu.measure", "%"},
	{"cpu.analysis", "%"},
	{"cpu.signalproc", "%"},
	{"cpu.model", "%"},
	{"cpu.advdiag", "%"},
	{"cpu.wire", "%"},
	{"cpu.json", "%"},
	{"cpu.net", "%"},
	{"cpu.gc", "%"},
	{"cpu.sync", "%"},
	{"cpu.goruntime", "%"},
	{"cpu.other", "%"},
	{"scheduler.ticks", "count"},
	{"scheduler.recals", "count"},
	{"scheduler.drift_flags", "count"},
	{"scheduler.shed", "count"},
}

// report collects one run's metrics, counts and check failures.
type report struct {
	traced bool
	values map[string]float64
	notes  []string // sample counts, rates and other run record lines
	checks []string // failed output checks
	counts          // every timed window's operations, checked windows included
}

// counts tallies a window's operations by outcome.
type counts struct {
	sent    int // operations attempted
	ok      int // operations that succeeded and matched the reference
	errored int // operations that failed outright
	refused int // 429 / ErrFleetSaturated refusals
	wrong   int // fingerprint or count mismatches
}

func (c *counts) add(o counts) {
	c.sent += o.sent
	c.ok += o.ok
	c.errored += o.errored
	c.refused += o.refused
	c.wrong += o.wrong
}

func newReport(traced bool) *report {
	return &report{traced: traced, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf records a failed output check; the run is then not correct.
func (r *report) failf(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// setOverhead records the tracing overhead: the traced window's median
// latency and throughput against the untraced window's.
func (r *report) setOverhead(baseLat, lat, baseTput, tput float64) {
	if baseLat <= 0 || baseTput <= 0 {
		return
	}
	r.set("overhead.latency_p50_pct", 100*(lat-baseLat)/baseLat)
	r.set("overhead.throughput_pct", 100*(tput-baseTput)/baseTput)
	r.notef("tracing overhead: latency_p50_ms %.4g → %.4g, throughput_per_s %.5g → %.5g (untraced → traced)",
		baseLat, lat, baseTput, tput)
}

// failed is every operation counted against failed_frac.
func (r *report) failed() int { return r.errored + r.refused + r.wrong }

func (r *report) failedFrac() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.failed()) / float64(r.sent)
}

// result builds the JSON line: the end-to-end metrics untraced, the
// per-layer ones traced.
func (r *report) result() result {
	set := endToEndMetrics
	if r.traced {
		set = perLayerMetrics
	}
	out := result{
		Correct:   len(r.checks) == 0 && r.failed() == 0 && r.sent > 0,
		Attempted: max(r.sent, 1),
		Failed:    r.failed(),
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		out.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

// print writes the human-readable report: counts, run record notes,
// check failures and every metric this run measured.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "counts: sent %d, succeeded %d, failed %d, refused %d, mismatched %d (failed_frac %g)\n",
		r.sent, r.ok, r.errored, r.refused, r.wrong, r.failedFrac())
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	set := endToEndMetrics
	if r.traced {
		set = perLayerMetrics
	}
	for _, m := range set {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	if !r.traced {
		fmt.Fprintln(w, "  also measured (unbounded; per-layer metrics of a traced run):")
		for _, m := range perLayerMetrics {
			if v, ok := r.values[m.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.name, v, m.unit)
			}
		}
	}
}

// gitCommit is stamped by run.sh (-ldflags -X) when the checkout is a
// git work tree.
var gitCommit string

// printHost records the host and run identity at the top of every
// report.
func printHost(w io.Writer, workload string, seed uint64, trace int) {
	commit := gitCommit
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, trace %d\n", workload, seed, trace)
	fmt.Fprintf(w, "host: cpu %q, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
