package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"time"

	"advdiag"
)

// The system under test is labserve's default deployment.
const (
	platformSeed = 1 // labserve -seed default; the workload seed only shapes inputs
	sutShards    = 2
	sutWorkers   = 1
	sutDepth     = 8
	// setupReps is how many times a run sets the system up; setup_s is
	// the median, and the last instance serves the timed window.
	setupReps = 11
	// clientConns bounds the generator's connections and goroutines
	// (the host has 2 CPUs).
	clientConns = 2
)

// fig4Targets is the paper's §III six-target demonstrator panel.
var fig4Targets = []string{
	"glucose", "lactate", "glutamate",
	"benzphetamine", "aminopyrine", "cholesterol",
}

// baselineMM centers generated samples on physiologic values.
var baselineMM = map[string]float64{
	"glucose":       2.0,
	"lactate":       1.0,
	"glutamate":     1.0,
	"benzphetamine": 0.8,
	"aminopyrine":   4.0,
	"cholesterol":   0.05,
}

var (
	metabolites = []string{"glucose", "lactate", "glutamate", "cholesterol"}
	drugs       = []string{"benzphetamine", "aminopyrine"}
)

// panelSample makes sample number n of a workload from the seed alone,
// so verification can regenerate any sample from the number its
// outcome echoes. Mixed samples follow labbench -fleet: n%3 picks a
// metabolite panel, a drug panel or the full panel.
func panelSample(seed uint64, n int, mixed bool) advdiag.Sample {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	keep := fig4Targets
	if mixed {
		switch n % 3 {
		case 0:
			keep = metabolites
		case 1:
			keep = drugs
		}
	}
	concs := make(map[string]float64, len(keep))
	for _, t := range keep {
		concs[t] = baselineMM[t] * (0.5 + 1.5*rng.Float64())
	}
	return advdiag.Sample{ID: strconv.Itoa(n), Concentrations: concs}
}

// designFig4 designs the platform exactly as labserve does.
func designFig4() (*advdiag.Platform, error) {
	return advdiag.DesignPlatform(fig4Targets, advdiag.WithPlatformSeed(platformSeed))
}

// newFleet builds the 2-shard × 1-worker fleet over one platform.
func newFleet(p *advdiag.Platform, depth int, router advdiag.Router) (*advdiag.Fleet, error) {
	plats := make([]*advdiag.Platform, sutShards)
	for i := range plats {
		plats[i] = p
	}
	return advdiag.NewFleet(plats,
		advdiag.WithFleetRouter(router),
		advdiag.WithFleetWorkers(sutWorkers),
		advdiag.WithFleetQueueDepth(depth))
}

// panelSUT is one served deployment plus the client that drives it.
type panelSUT struct {
	fleet     *advdiag.Fleet
	server    *advdiag.Server
	httpSrv   *http.Server
	served    chan struct{} // closed when Serve returns
	transport *http.Transport
	client    *advdiag.Client
}

// startPanelSUT designs the platform, builds the fleet and server,
// brings the listener up and waits for the first /healthz 200. With a
// tracer, the Router, Server and client transport are wrapped.
func startPanelSUT(depth int, codec advdiag.WireCodec, tr *tracer) (*panelSUT, error) {
	p, err := designFig4()
	if err != nil {
		return nil, err
	}
	var router advdiag.Router = advdiag.LeastLoadedRouter{}
	if tr != nil {
		router = &tracedRouter{inner: router, tr: tr}
	}
	fleet, err := newFleet(p, depth, router)
	if err != nil {
		return nil, err
	}
	srv, err := advdiag.NewServer(fleet)
	if err != nil {
		fleet.Close() //nolint:errcheck // construction bail-out
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close() //nolint:errcheck // construction bail-out
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = &tracedHandler{inner: srv, tr: tr}
	}
	s := &panelSUT{
		fleet:     fleet,
		server:    srv,
		httpSrv:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:    make(chan struct{}),
		transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true},
	}
	go func() {
		defer close(s.served)
		s.httpSrv.Serve(ln) //nolint:errcheck // ErrServerClosed after close
	}()
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = &tracedTransport{inner: s.transport, tr: tr}
	}
	s.client = advdiag.NewClient("http://"+ln.Addr().String(),
		advdiag.WithHTTPClient(&http.Client{Transport: rt}),
		advdiag.WithWireCodec(codec))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.client.Health(ctx); err != nil {
		s.close() //nolint:errcheck // reporting the health failure instead
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return s, nil
}

// close waits for every in-flight handler to return, then stops the
// listener, the server's collectors and the fleet.
func (s *panelSUT) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
	return errors.Join(err, s.server.Close())
}

// setupPanelSUT sets the deployment up setupReps times, tearing down
// all but the last, and returns it with every setup duration.
func setupPanelSUT(depth int, codec advdiag.WireCodec, tr *tracer) (*panelSUT, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startPanelSUT(depth, codec, tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return s, setups, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, fmt.Errorf("tearing down setup %d: %w", i, err)
		}
	}
}
