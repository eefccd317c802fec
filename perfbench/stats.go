package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// sorting xs in place; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// median is the nearest-rank median of a copy of xs.
func median(xs []float64) float64 { return percentile(slices.Clone(xs), 0.5) }

// setLatency records a window's latency percentiles and the sample
// counts behind them, and returns the median.
func (r *report) setLatency(ms []float64, what string) float64 {
	s := slices.Clone(ms)
	p50 := percentile(s, 0.50)
	r.set("latency_p50_ms", p50)
	r.set("latency_p90_ms", percentile(s, 0.90))
	r.set("latency_p99_ms", percentile(s, 0.99))
	n := len(s)
	r.notef("latency percentiles over %d %s: %d beyond p90, %d beyond p99", n, what, n-int(0.9*float64(n)), n-int(0.99*float64(n)))
	return p50
}

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meter brackets a timed window with the process's CPU time and heap
// allocation count, which the window's per-operation costs come from.
type meter struct {
	start   time.Time
	cpu     time.Duration
	mallocs uint64
	host    hostCPU
}

// window is what a meter measured.
type window struct {
	wall, cpu time.Duration
	mallocs   uint64
	// stealPct is the share of the host's CPU time the hypervisor gave
	// to other guests during the window (0 when /proc/stat is absent).
	stealPct float64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, host: readHostCPU()}
}

func (m meter) stop() window {
	wall := time.Since(m.start)
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{wall: wall, cpu: cpu - m.cpu, mallocs: ms.Mallocs - m.mallocs}
	if h := readHostCPU(); h.total > m.host.total {
		w.stealPct = 100 * float64(h.steal-m.host.steal) / float64(h.total-m.host.total)
	}
	return w
}

// hostCPU is the first line of /proc/stat: all CPU time, and the
// stolen part, in clock ticks.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// processCPU is the process's user plus system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setPerOp records the window's CPU and allocation cost per operation.
func (r *report) setPerOp(w window, ops int) {
	if ops <= 0 {
		return
	}
	r.set("cpu_ms_per_op", w.cpu.Seconds()*1e3/float64(ops))
	r.set("allocs_per_op", float64(w.mallocs)/float64(ops))
	r.notef("host CPU steal during the window: %.1f%% (time the hypervisor ran other guests)", w.stealPct)
}
