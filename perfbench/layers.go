package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"advdiag"
	"advdiag/wire"
)

// accountingTolerance is how far the sum of the stage medians may sit
// from the median latency in the traced interactive run.
const accountingTolerance = 0.10

// stage is one slice of a traced request: the stages partition the
// interval from due time to parsed response.
type stage struct {
	name string
	us   []float64
}

// perLayer records the interactive per-layer metrics from the traced
// window's spans, and runs the accounting check.
func (run *panelRun) perLayer(rep *report) {
	tr := run.tr
	off := run.start.Sub(tr.base)
	var (
		pre, decode, admit, route, wait, queue, kernel, encode, post = stage{name: "client+network before handler"},
			stage{name: "server.decode (body read)"}, stage{name: "fleet.admit_wait (codec, subMu, Fleet.mu)"},
			stage{name: "router.route"}, stage{name: "server.wait"}, stage{name: "fleet.queue_wait (wait - kernel)"},
			stage{name: "runtime.kernel"}, stage{name: "server.encode (first byte to return)"},
			stage{name: "client+network after handler"}
		total, rtt, connWait, lag []float64
		rejected                  int
		kernelSum                 time.Duration
	)
	for k, rec := range run.records {
		sp := &tr.spans[interactiveWarmup+k]
		sp.Due, sp.Free, sp.Send, sp.Done = int64(off+rec.due), int64(off+rec.free), int64(off+rec.send), int64(off+rec.done)
		sp.KernelNS = int64(rec.kernel)
		connWait = append(connWait, float64(max(0, rec.free-rec.due))/1e3)
		lag = append(lag, float64(rec.send-max(rec.due, rec.free))/1e6)
		if sp.Status >= 400 {
			rejected++
		}
		if rec.class == classOK {
			kernelSum += rec.kernel
		}
		if rec.class != classOK || sp.H0 == 0 || sp.H1 == 0 || sp.R0 == 0 || sp.W0 == 0 || sp.H2 == 0 {
			continue
		}
		us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
		pre.us = append(pre.us, us(sp.Due, sp.H0))
		decode.us = append(decode.us, us(sp.H0, sp.H1))
		admit.us = append(admit.us, us(sp.H1, sp.R0))
		route.us = append(route.us, us(sp.R0, sp.R1))
		wait.us = append(wait.us, us(sp.R1, sp.W0))
		kernel.us = append(kernel.us, float64(sp.KernelNS)/1e3)
		queue.us = append(queue.us, us(sp.R1, sp.W0)-float64(sp.KernelNS)/1e3)
		encode.us = append(encode.us, us(sp.W0, sp.H2))
		post.us = append(post.us, us(sp.H2, sp.Done))
		total = append(total, us(sp.Due, sp.Done))
		rtt = append(rtt, us(sp.RT0, sp.RT1))
	}
	rep.set("client.rtt_us.p50", percentile(rtt, 0.50))
	rep.set("client.rtt_us.p99", percentile(rtt, 0.99))
	rep.set("gen.lag_ms.p99", percentile(lag, 0.99))
	rep.set("gen.conn_wait_us", mean(connWait))
	rep.set("server.decode_us", median(decode.us))
	rep.set("server.wait_us", median(wait.us))
	rep.set("server.encode_us", median(encode.us))
	rep.set("server.rejected", float64(rejected))
	rep.set("router.route_us", median(route.us))
	rep.set("fleet.admit_wait_us", median(admit.us))
	rep.set("fleet.queue_wait_us", median(queue.us))
	rep.set("runtime.panel_us", median(kernel.us))
	setFleetLayers(rep, run.before, run.after, run.win.wall, kernelSum)

	// Accounting: the stages of the median request must add up to the
	// median latency. The stages partition every request exactly, so
	// the check is on the medians: taken over the requests whose latency
	// lies between the 45th and 55th percentiles. (Taken over all
	// requests, a skewed stage such as the wait for a free connection
	// pulls the sum of medians below the median of sums: 0.86 under 35%
	// host CPU steal.)
	stages := []stage{pre, decode, admit, route, queue, kernel, encode, post}
	med := median(total)
	lo, hi := percentile(slices.Clone(total), 0.45), percentile(slices.Clone(total), 0.55)
	var band []int
	for i, t := range total {
		if t >= lo && t <= hi {
			band = append(band, i)
		}
	}
	sum := 0.0
	rep.notef("stage medians over the %d of %d fully traced requests between the latency p45 and p55 (self time of each span):", len(band), len(total))
	for _, s := range stages {
		us := make([]float64, len(band))
		for j, i := range band {
			us[j] = s.us[i]
		}
		m := median(us)
		sum += m
		rep.notef("  %-44s %10.1f us  (all requests: %.1f us)", s.name, m, median(s.us))
	}
	ratio := sum / med
	rep.notef("  %-44s %10.1f us  (median latency %.1f us, ratio %.3f)", "sum of stage medians", sum, med, ratio)
	switch {
	case run.late:
		rep.notef("  accounting check skipped: the traced window's generator ran late")
	case math.IsNaN(ratio):
		rep.failf("accounting: no fully traced request")
	case math.Abs(ratio-1) > accountingTolerance:
		rep.set("accounting.stage_sum_ratio", ratio)
		rep.failf("accounting: stage medians sum to %.1f us, %.1f%% off the median latency %.1f us (limit %.0f%%)",
			sum, 100*(ratio-1), med, 100*accountingTolerance)
	default:
		rep.set("accounting.stage_sum_ratio", ratio)
	}
	rep.setWire(run.results, run.sampleFn)
	if err := rep.setCPU(run.cfg, "interactive", run.prof); err != nil {
		rep.failf("%v", err)
	}
}

// setFleetLayers records the dispatch and runtime metrics a window's
// Stats snapshots and summed kernel time give.
func setFleetLayers(rep *report, before, after advdiag.FleetStats, wall, kernelSum time.Duration) {
	var routed []float64
	for i, sh := range after.Shards {
		routed = append(routed, float64(sh.Routed-before.Shards[i].Routed))
	}
	if m := mean(routed); m > 0 {
		hi := 0.0
		for _, r := range routed {
			hi = max(hi, r)
		}
		rep.set("fleet.imbalance", hi/m)
	}
	rep.set("runtime.busy_frac", kernelSum.Seconds()/(wall.Seconds()*sutShards*sutWorkers))
	rep.set("runtime.cache_hit_rate", after.CacheHitRate)
}

// setWire prices both codecs on the workload's own panels: per panel,
// one sample frame and one outcome frame, encoded and decoded.
func (r *report) setWire(results []advdiag.PanelOutcome, sample func(n int) advdiag.Sample) {
	if len(results) == 0 {
		return
	}
	type codec struct {
		name      string
		encSample func(wire.Sample) ([]byte, error)
		decSample func([]byte) (wire.Sample, error)
		encOut    func(wire.Outcome) ([]byte, error)
		decOut    func([]byte) (wire.Outcome, error)
	}
	codecs := []codec{
		{"json", wire.MarshalSample, wire.UnmarshalSample, wire.MarshalOutcome, wire.UnmarshalOutcome},
		{"binary", wire.MarshalSampleBinary, wire.UnmarshalSampleBinary, wire.MarshalOutcomeBinary, wire.UnmarshalOutcomeBinary},
	}
	samples := make([]wire.Sample, len(results))
	outs := make([]wire.Outcome, len(results))
	for i, o := range results {
		s := sample(atoi(o.ID))
		samples[i] = wire.Sample{Schema: wire.SchemaVersion, ID: s.ID, Concentrations: s.Concentrations}
		res := wire.PanelResult{Schema: wire.SchemaVersion, PanelSeconds: o.Result.PanelSeconds}
		for _, rd := range o.Result.Readings {
			res.Readings = append(res.Readings, wire.Reading(rd))
		}
		outs[i] = wire.Outcome{Schema: wire.SchemaVersion, Seq: i, Index: o.Index, ID: o.ID, Shard: o.Shard,
			Result: &res, ScheduledStartSeconds: o.ScheduledStartSeconds, WallSeconds: o.WallSeconds}
	}
	for _, c := range codecs {
		var bytes, enc, dec float64
		for i := range samples {
			t0 := time.Now()
			sf, err1 := c.encSample(samples[i])
			of, err2 := c.encOut(outs[i])
			t1 := time.Now()
			_, err3 := c.decSample(sf)
			_, err4 := c.decOut(of)
			t2 := time.Now()
			if err := firstErr(err1, err2, err3, err4); err != nil {
				r.failf("wire %s round trip of panel %s: %v", c.name, outs[i].ID, err)
				return
			}
			enc += t1.Sub(t0).Seconds()
			dec += t2.Sub(t1).Seconds()
			bytes += float64(len(sf) + len(of))
		}
		n := float64(len(samples))
		r.set("wire.encode_us."+c.name, enc*1e6/n)
		r.set("wire.decode_us."+c.name, dec*1e6/n)
		r.set("wire.bytes_per_panel."+c.name, bytes/n)
	}
	r.notef("wire.* priced on %d of the workload's own panels (sample frame + outcome frame each)", len(samples))
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes a traced window's spans, one JSON object a line.
func writeSpans(cfg runConfig, workload string, spans []panelSpan) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", workload, cfg.seed))
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if spans[i].H0 == 0 && spans[i].R0 == 0 {
			continue // a sample this run never traced
		}
		if err := enc.Encode(struct {
			N int `json:"n"`
			panelSpan
		}{i, spans[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	return nil
}

// writeOut writes one artifact of a traced run under the output
// directory.
func writeOut(cfg runConfig, name string, data []byte) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "wrote %s\n", path)
	return nil
}

// atoi parses a sample ID the benchmark assigned; -1 if it is not one.
func atoi(id string) int {
	n, err := strconv.Atoi(id)
	if err != nil {
		return -1
	}
	return n
}
