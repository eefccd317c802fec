package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"advdiag"
)

// The tracer records spans at each layer boundary from outside the
// program, by wrapping the public API of each layer:
//
//	Client     an http.RoundTripper passed with advdiag.WithHTTPClient
//	Server     an http.Handler around advdiag.Server
//	Fleet      an advdiag.Router passed with advdiag.WithFleetRouter
//	Scheduler  an advdiag.MonitorBackend around the Fleet
//
// Panel spans are keyed by the sample number the benchmark assigns:
// the sample ID is its decimal form, the Router sees it as Sample.ID,
// outcomes echo it, and the client and handler wrappers carry it in
// the spanHeader request header. Spans live in memory, in slices
// preallocated before the timed window, and are written out when the
// run ends. Each timestamp field has a single writer; readers look only
// after the window's goroutines have been joined.

// spanHeader carries the sample number from the client wrapper to the
// handler wrapper.
const spanHeader = "X-Perfbench-Span"

// panelSpan is one single-sample request, in nanoseconds since the
// tracer's base time. Zero means the boundary was not observed.
type panelSpan struct {
	Due, Free, Send int64 // generator: due, sender free, send start
	RT0, RT1        int64 // RoundTripper entry and return (headers read)
	H0, H1          int64 // handler entry, request body fully read
	R0, R1          int64 // Router.Route entry and return
	W0, H2          int64 // first response byte, handler return
	Done            int64 // response parsed by the client
	KernelNS        int64 // PanelOutcome.WallSeconds
	Status          int   // HTTP status the handler wrote
}

type tracer struct {
	base  time.Time
	spans []panelSpan

	// Route calls run under the Fleet's submission lock, so the
	// monitor route durations need no lock of their own.
	monitorRoutes []float64 // µs
}

func newTracer(panels int) *tracer {
	return &tracer{base: time.Now(), spans: make([]panelSpan, panels)}
}

// now is the trace clock: monotonic nanoseconds since base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// span returns the span for a sample ID, or nil when the ID is not a
// traced sample number.
func (t *tracer) span(id string) *panelSpan {
	n := atoi(id)
	if n < 0 || n >= len(t.spans) {
		return nil
	}
	return &t.spans[n]
}

type spanKey struct{}

// withSpan tags a request context with its sample ID, which the
// RoundTripper wrapper copies into spanHeader.
func withSpan(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// tracedTransport times the client's round trips.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(spanKey{}).(string)
	sp := t.tr.span(id)
	if sp == nil {
		return t.inner.RoundTrip(req)
	}
	// RoundTrip must not modify the caller's request: tag a clone.
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, id)
	sp.RT0 = t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	sp.RT1 = t.tr.now()
	return resp, err
}

// tracedHandler times the server's handling of each tagged request:
// entry, body fully read, first response byte, return.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.tr.span(r.Header.Get(spanHeader))
	if sp == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	sp.H0 = h.tr.now()
	r.Body = &eofClock{ReadCloser: r.Body, tr: h.tr, at: &sp.H1}
	tw := &firstByteClock{ResponseWriter: w, tr: h.tr, sp: sp}
	h.inner.ServeHTTP(tw, r)
	sp.H2 = h.tr.now()
	if sp.Status == 0 {
		sp.Status = http.StatusOK
	}
}

// eofClock stamps the moment the request body reports EOF.
type eofClock struct {
	io.ReadCloser
	tr *tracer
	at *int64
}

func (e *eofClock) Read(p []byte) (int, error) {
	n, err := e.ReadCloser.Read(p)
	if err == io.EOF && *e.at == 0 {
		*e.at = e.tr.now()
	}
	return n, err
}

// firstByteClock stamps the first header or body write and the status.
type firstByteClock struct {
	http.ResponseWriter
	tr *tracer
	sp *panelSpan
}

func (f *firstByteClock) mark(status int) {
	if f.sp.W0 == 0 {
		f.sp.W0 = f.tr.now()
		f.sp.Status = status
	}
}

func (f *firstByteClock) WriteHeader(status int) {
	f.mark(status)
	f.ResponseWriter.WriteHeader(status)
}

func (f *firstByteClock) Write(p []byte) (int, error) {
	f.mark(http.StatusOK)
	return f.ResponseWriter.Write(p)
}

// Unwrap lets http.NewResponseController reach the underlying writer.
func (f *firstByteClock) Unwrap() http.ResponseWriter { return f.ResponseWriter }

// tracedRouter times Route. It runs under the Fleet's submission lock,
// so its own time counts toward the lock hold time it measures.
type tracedRouter struct {
	inner advdiag.Router
	tr    *tracer
}

func (r *tracedRouter) Route(s advdiag.Sample, shards []advdiag.ShardInfo) (int, error) {
	t0 := r.tr.now()
	idx, err := r.inner.Route(s, shards)
	t1 := r.tr.now()
	if sp := r.tr.span(s.ID); sp != nil {
		sp.R0, sp.R1 = t0, t1
	} else if len(s.ID) > 0 && s.ID[0] == campaignPrefix {
		r.tr.monitorRoutes = append(r.tr.monitorRoutes, float64(t1-t0)/1e3)
	}
	return idx, err
}

// monitorClock is the MonitorBackend the cohort scheduler drives. It
// always stamps the start of each tick's submission, which gives the
// campaign cycle time (one tick's submission to the next one's). When
// traced it also times the submit calls and forwards the outcome
// stream to stamp each tick's completion.
type monitorClock struct {
	fleet    *advdiag.Fleet
	base     time.Time
	maxTicks int
	submit   []int64 // [campaign*maxTicks+tick] submission start, ns since base

	traced   bool
	submitNS []float64 // submit call durations
	done     []int64   // [campaign*maxTicks+tick] outcome arrival
	kernelUS []float64 // MonitorOutcome.WallSeconds
	out      chan advdiag.MonitorOutcome
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newMonitorClock(f *advdiag.Fleet, campaigns, maxTicks int, traced bool) *monitorClock {
	m := &monitorClock{fleet: f, base: time.Now(), maxTicks: maxTicks,
		submit: make([]int64, campaigns*maxTicks), traced: traced}
	if traced {
		m.done = make([]int64, campaigns*maxTicks)
	}
	return m
}

// slot maps a campaign tick to its span slot, or -1.
func (m *monitorClock) slot(id string, tick int) int {
	if len(id) < 2 || id[0] != campaignPrefix || tick < 0 || tick >= m.maxTicks {
		return -1
	}
	c, err := strconv.Atoi(id[1:])
	if err != nil || c < 0 || (c+1)*m.maxTicks > len(m.submit) {
		return -1
	}
	return c*m.maxTicks + tick
}

func (m *monitorClock) now() int64 { return int64(time.Since(m.base)) }

// TrySubmitMonitor is the scheduler's first attempt for every tick.
func (m *monitorClock) TrySubmitMonitor(req advdiag.MonitorRequest) error {
	t0 := m.now()
	if i := m.slot(req.ID, req.Tick); i >= 0 {
		m.submit[i] = t0
	}
	err := m.fleet.TrySubmitMonitor(req)
	if m.traced {
		m.submitNS = append(m.submitNS, float64(m.now()-t0))
	}
	return err
}

// SubmitMonitor is the scheduler's blocking fallback after a shed.
func (m *monitorClock) SubmitMonitor(req advdiag.MonitorRequest) error {
	if !m.traced {
		return m.fleet.SubmitMonitor(req)
	}
	t0 := m.now()
	err := m.fleet.SubmitMonitor(req)
	m.submitNS = append(m.submitNS, float64(m.now()-t0))
	return err
}

// MonitorResults is the fleet's stream untraced; traced, a forwarding
// copy that stamps each arrival. The scheduler calls it once per Run.
func (m *monitorClock) MonitorResults() <-chan advdiag.MonitorOutcome {
	if !m.traced {
		return m.fleet.MonitorResults()
	}
	// Same capacity as the fleet's own stream (shards × queue depth),
	// so forwarding adds no buffering the fleet would not have.
	m.out = make(chan advdiag.MonitorOutcome, sutShards*sutDepth)
	m.stop = make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		src := m.fleet.MonitorResults()
		for {
			select {
			case o, ok := <-src:
				if !ok {
					close(m.out)
					return
				}
				if i := m.slot(o.ID, o.Tick); i >= 0 {
					m.done[i] = m.now()
				}
				m.kernelUS = append(m.kernelUS, o.WallSeconds*1e6)
				select {
				case m.out <- o:
				case <-m.stop:
					return
				}
			case <-m.stop:
				return
			}
		}
	}()
	return m.out
}

// close stops the forwarder after the scheduler's Run returned.
func (m *monitorClock) close() {
	if m.stop != nil {
		close(m.stop)
		m.wg.Wait()
		m.stop = nil
	}
}

// cycleMS appends each tick's cycle time — its submission to the
// campaign's next submission — in milliseconds.
func (m *monitorClock) cycleMS(dst []float64) []float64 {
	for c := 0; c+m.maxTicks <= len(m.submit); c += m.maxTicks {
		ticks := m.submit[c : c+m.maxTicks]
		for k := 0; k+1 < len(ticks) && ticks[k+1] != 0; k++ {
			dst = append(dst, float64(ticks[k+1]-ticks[k])/1e6)
		}
	}
	return dst
}

// turnaroundUS appends each traced tick's submission-to-outcome time.
func (m *monitorClock) turnaroundUS(dst []float64) []float64 {
	for i, d := range m.done {
		if d != 0 && m.submit[i] != 0 {
			dst = append(dst, float64(d-m.submit[i])/1e3)
		}
	}
	return dst
}
