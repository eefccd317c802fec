// Command perfbench is the repository benchmark. It runs one workload
// against the deployed labserve configuration — the Fig. 4 six-target
// platform, 2 shards × 1 worker, queue depth 8, least-loaded routing —
// with the load generator in the same process over loopback TCP, and
// prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see workload.go for the generators):
//
//	interactive     open loop: Poisson single-sample JSON POST /v1/panels
//	bulk_stream     closed loop: one binary stream of mixed panels
//	cohort_monitor  in-process MonitorScheduler cohort, no HTTP
//
// With --trace 0 the JSON carries the end-to-end metrics of an
// untraced run. With --trace 1 the run is made twice, untraced and
// then traced, and the JSON carries the per-layer metrics: spans taken
// by wrapping each layer's public API, a CPU profile split by package,
// and the tracing overhead as the difference between the two runs.
// Spans and the profile are written under --out.
//
// Every accepted output is checked: served panels are replayed on a
// local Lab by their fleet index and diffed by fingerprint, and every
// cohort is diffed against a 1-shard reference run.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// which builds the binary from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one named value in the JSON result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	outDir  string
	out     io.Writer // human-readable report lines
}

// workloads maps each workload name to its runner. A runner returns the
// untraced end-to-end report, or with traced set the per-layer report.
var workloads = map[string]func(cfg runConfig, traced bool) (*report, error){
	"interactive":    runInteractive,
	"bulk_stream":    runBulkStream,
	"cohort_monitor": runCohortMonitor,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: interactive, bulk_stream or cohort_monitor")
		seed     = flag.Uint64("seed", 1, "workload seed (inputs only; the system under test keeps the labserve seed)")
		seconds  = flag.Float64("seconds", 20, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for spans and the CPU profile of a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		fatalf("--seconds must be positive, got %v", *seconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir, out: os.Stdout}
	printHost(cfg.out, *workload, *seed, *trace)

	rep, err := run(cfg, *trace == 1)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	rep.set("failed_frac", rep.failedFrac())
	rep.print(cfg.out)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
