// Package telemetry is the live observability plane: an HTTP server that
// exposes a running sweep's progress and aggregated simulation metrics
// without touching simulation results.
//
// Endpoints:
//
//	/metrics      Prometheus text exposition 0.0.4: aggregated probe
//	              metrics (dynaspam_sim_*), the cycle-accounting stack
//	              (dynaspam_cpistack_*), and Go runtime health (go_*).
//	              No sample carries a per-sweep or per-job label, so the
//	              page does not grow with the number of sweeps.
//	/healthz      liveness: "ok" and a 200.
//	/status       JSON sweep progress: cells done/total, failures, ETA,
//	              per-cell wall times.
//	/events       Server-Sent Events stream of journal entries and sweep
//	              lifecycle markers, with Last-Event-ID replay.
//	/debug/pprof  the standard pprof handlers.
//
// The plane is strictly observe-only. Simulation cells never read from
// it; workers hand it immutable probe.Export snapshots after a cell
// finishes, and the runner tees journal entries into its Tracker. Turning
// the server on or off therefore cannot change a single simulated cycle —
// TestBFSGoldenExportsUnchangedWithServer locks this in. Wall-clock reads
// here measure the host process (sweep ETAs, GC pauses), never the
// simulated machine, which is why dynalint allowlists this package for
// the wallclock rule.
package telemetry

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Server is the telemetry plane. Construct with NewServer, attach its
// Aggregator and Tracker to the sweep machinery, and either mount
// Handler on an existing mux or call Start/Shutdown for a standalone
// listener.
type Server struct {
	runID   string
	log     *slog.Logger
	agg     *Aggregator
	tracker *Tracker
	mux     *http.ServeMux

	// bodyTimeout bounds a request body's read on the Start listener.
	bodyTimeout time.Duration

	mu       sync.Mutex
	srv      *http.Server
	patterns []string
	extras   []func() []ExtraFamily
}

// Connection bounds of the Start listener. A client that stops sending
// holds a connection and its handler goroutine at most this long:
// readHeaderTimeout covers the request line and headers, bodyReadTimeout a
// request body (a POST /jobs spec; see limitBodyRead), idleTimeout a
// kept-alive connection between requests. There is no WriteTimeout:
// /events streams for as long as its subscriber stays, and a WriteTimeout
// would fail its writes, ending the stream, at that age.
const (
	readHeaderTimeout = 10 * time.Second
	bodyReadTimeout   = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer builds a telemetry plane for one process run. runID labels
// /status and the dynaspam_run_info metric; log receives serve-lifecycle
// records (nil means slog.Default).
func NewServer(runID string, log *slog.Logger) *Server {
	if log == nil {
		log = slog.Default()
	}
	s := &Server{
		runID:       runID,
		log:         log,
		agg:         NewAggregator(),
		tracker:     NewTracker(runID),
		mux:         http.NewServeMux(),
		bodyTimeout: bodyReadTimeout,
	}
	s.Handle("/metrics", http.HandlerFunc(s.serveMetrics))
	s.Handle("/healthz", http.HandlerFunc(s.serveHealthz))
	s.Handle("/status", http.HandlerFunc(s.tracker.ServeStatus))
	s.Handle("/events", http.HandlerFunc(s.tracker.ServeEvents))
	s.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
	s.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	s.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	s.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	s.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	return s
}

// Aggregator returns the sink sweep workers merge probe exports into.
func (s *Server) Aggregator() *Aggregator { return s.agg }

// Tracker returns the sweep observer behind /status and /events. It
// implements runner.Reporter: wire it into runner.Options.Reporter.
func (s *Server) Tracker() *Tracker { return s.tracker }

// Handle registers an additional handler (e.g. the jobs API) on the
// plane's mux and records its pattern for Patterns. Must be called before
// Start.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
	s.mu.Lock()
	s.patterns = append(s.patterns, pattern)
	s.mu.Unlock()
}

// Patterns returns every mux pattern registered on the plane, in
// registration order — the plane's own endpoints plus anything added via
// Handle. The OPERATIONS.md coverage test diffs this list against the
// documented endpoints, so the manual can never silently drift from the
// mux.
func (s *Server) Patterns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.patterns...)
}

// AddExtra registers a callback contributing extra metric families to
// /metrics (the jobs plane's queue and cache counters). Callbacks run on
// every scrape, in registration order, after the plane's own families and
// before the aggregated simulation metrics; they must be safe for
// concurrent use. Must be called before Start.
func (s *Server) AddExtra(fn func() []ExtraFamily) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extras = append(s.extras, fn)
}

// Handler returns the plane's full HTTP handler, for tests and for
// embedding into an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, so addr may use
// port 0 and callers (and the smoke-test CI steps) can discover the real
// port from the "telemetry listening" log record.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           s.limitBodyRead(s.mux),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	bound := ln.Addr().String()
	s.log.Info("telemetry listening", "addr", bound)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("telemetry server failed", "addr", bound, "err", err)
		}
	}()
	return bound, nil
}

// limitBodyRead gives a request that has a body bodyTimeout to send it,
// through the connection's read deadline. net/http clears that deadline
// when the body has been read to its end (it then reads the connection in
// the background to notice a client that goes away) and sets its own when
// it reads the next request's headers, so the bound covers only the body.
func (s *Server) limitBodyRead(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && r.Body != http.NoBody {
			http.NewResponseController(w).SetReadDeadline(time.Now().Add(s.bodyTimeout))
		}
		h.ServeHTTP(w, r)
	})
}

// Shutdown gracefully stops the listener, waiting for in-flight requests
// up to ctx's deadline. Safe to call without a prior Start, and more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// serveHealthz handles GET /healthz.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// serveMetrics handles GET /metrics: run identity, the contributed
// families, aggregated simulation metrics, and runtime health, in that
// order.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := &expoWriter{w: w}

	e.header("dynaspam_run_info", "Identity of this dynaspam process; the value is always 1.", "gauge")
	e.sample("dynaspam_run_info", []label{{"run_id", s.runID}, {"go_version", goVersion()}}, 1)

	s.mu.Lock()
	extras := append([]func() []ExtraFamily(nil), s.extras...)
	s.mu.Unlock()
	for _, fn := range extras {
		writeExtras(e, fn())
	}
	writeAggregate(e, s.agg)
	writeRuntime(e)
}

// writeAggregate renders the merged simulation metrics plus the
// aggregator's own health counters.
func writeAggregate(e *expoWriter, agg *Aggregator) {
	e.header("dynaspam_cells_merged_total", "Probe exports merged into the aggregator.", "counter")
	e.sample("dynaspam_cells_merged_total", nil, float64(agg.Cells()))
	e.header("dynaspam_histogram_bounds_mismatch_total", "Histogram merges that dropped buckets because bounds differed across cells.", "counter")
	e.sample("dynaspam_histogram_bounds_mismatch_total", nil, float64(agg.BoundsMismatches()))
	e.header("dynaspam_probe_events_dropped_total", "Trace events discarded by finished cells' probe MaxEvents caps.", "counter")
	e.sample("dynaspam_probe_events_dropped_total", nil, agg.EventsDropped())
	ex := agg.Export()
	writeExport(e, ex)
	writeCPIStack(e, ex)
}

// writeRuntime renders go_* process-health metrics, read at scrape time:
// runtime.ReadMemStats stops the world briefly, so it runs only when
// someone scrapes.
func writeRuntime(e *expoWriter) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.header("go_goroutines", "Number of goroutines.", "gauge")
	e.sample("go_goroutines", nil, float64(runtime.NumGoroutine()))
	e.header("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	e.sample("go_memstats_heap_alloc_bytes", nil, float64(m.HeapAlloc))
	e.header("go_memstats_heap_objects", "Number of allocated heap objects.", "gauge")
	e.sample("go_memstats_heap_objects", nil, float64(m.HeapObjects))
	e.header("go_gc_cycles_total", "Completed GC cycles.", "counter")
	e.sample("go_gc_cycles_total", nil, float64(m.NumGC))
	e.header("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	e.sample("go_gc_pause_seconds_total", nil, time.Duration(m.PauseTotalNs).Seconds())
}

// goVersion reports the toolchain that built this binary.
func goVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.GoVersion
	}
	return "unknown"
}
