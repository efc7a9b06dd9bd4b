// Package server implements ptserved's HTTP/JSON service layer: a
// concurrent network front end over one PerfTrack data store. It exposes
// PTdf ingest, pr-filter match counting, two-step result retrieval, and
// the name-list reports, with an operational envelope of request
// tagging, structured leveled logs, load shedding, per-request timeouts,
// panic recovery, Prometheus-style metrics, context-propagated request
// tracing with debug endpoints, and graceful drain + checkpoint
// shutdown. Only the standard library is used.
package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/obs"
	"perftrack/internal/obs/selfmon"
	"perftrack/internal/planner"
)

// Config carries the server's dependencies and operational limits.
type Config struct {
	Store *datastore.Store

	// ReadOnly rejects POST /v1/load with 403.
	ReadOnly bool

	// MaxInFlight bounds concurrently served API requests; excess
	// requests are shed with 429. 0 means the default of 64.
	MaxInFlight int

	// RequestTimeout bounds each API request end to end; 0 means the
	// default of 30s. /healthz and /metrics are exempt.
	RequestTimeout time.Duration

	// Log receives structured key=value lines (one per request plus
	// lifecycle events, and net/http's own error lines at error level).
	// Nil means no logging.
	Log *obs.Logger

	// SlowRequestThreshold marks traces at or over this duration as slow
	// (kept in a separate ring and logged at warn level). 0 means the
	// default of 1s; negative disables slow-request detection.
	SlowRequestThreshold time.Duration

	// SelfMonInterval is the continuous self-diagnosis sampling period:
	// the server snapshots its own telemetry as PTdf executions and
	// GET /v1/debug/selfdiagnose compares recent samples against the
	// rolling baseline. 0 means the default of 15s; negative disables
	// self-monitoring.
	SelfMonInterval time.Duration
}

// Fixed capacities of the server's bounded buffers. The /v1/sql result
// cache takes the shared datastore.DefaultCacheBytes.
const (
	traceBuffer   = 256     // completed (and, separately, slow) traces kept for /v1/debug/traces
	queryLogBytes = 1 << 20 // per ring (recent, slow) of the /v1/debug/queries capture
	selfMonWindow = 64      // telemetry samples the self-monitor retains
)

// Server is the ptserved HTTP service.
type Server struct {
	cfg       Config
	store     *datastore.Store
	metrics   *serverMetrics
	tracer    *obs.Tracer
	log       *obs.Logger
	sem       chan struct{}
	httpSrv   *http.Server
	planCache *planner.ResultCache
	queries   *queryLog
	selfmon   *selfmon.Sampler // nil when disabled

	selfMu   sync.Mutex   // guards selfPrev (interval-delta state)
	selfPrev selfSnapshot // previous self-sample counter snapshot

	// injectDelay stretches every instrumented request by the given
	// nanoseconds — a fault-injection hook for the self-diagnosis tests.
	injectDelay atomic.Int64
}

// New validates the config and builds a Server. The caller serves it via
// Serve/ListenAndServe or mounts Handler() under its own http.Server.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: Config.Store is required")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("server: MaxInFlight must be positive, got %d", cfg.MaxInFlight)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.SlowRequestThreshold == 0 {
		cfg.SlowRequestThreshold = time.Second
	}
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		metrics:   newServerMetrics(),
		log:       cfg.Log,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		planCache: planner.NewResultCache(0),
		queries:   newQueryLog(queryLogBytes, cfg.SlowRequestThreshold),
	}
	s.metrics.registerPlanCache(s.planCache)
	s.metrics.registerQueryLog(s.queries)
	s.tracer = obs.NewTracer(traceBuffer, cfg.SlowRequestThreshold, func(tr *obs.Trace) {
		d := tr.Data()
		s.log.Warn("slow request", "rid", tr.ID(), "route", tr.Name(),
			"dur", d.Duration, "spans", len(d.Spans))
	})
	s.metrics.registerStore(cfg.Store)
	s.metrics.registerTracer(s.tracer)
	if cfg.SelfMonInterval >= 0 {
		if err := s.buildSelfMonitor(); err != nil {
			return nil, err
		}
	}
	s.httpSrv = &http.Server{
		Handler:     s.Handler(),
		ReadTimeout: 0, // streamed loads may upload for a long time
		IdleTimeout: 2 * time.Minute,
		ErrorLog:    log.New(errorLogWriter{cfg.Log}, "", 0),
	}
	return s, nil
}

// errorLogWriter feeds net/http's own error lines (failed accepts,
// malformed requests, superfluous WriteHeader calls) into the structured
// log.
type errorLogWriter struct{ log *obs.Logger }

func (w errorLogWriter) Write(p []byte) (int, error) {
	w.log.Error("http server", "err", strings.TrimSpace(string(p)))
	return len(p), nil
}

// route wires one endpoint with the full middleware stack. Outermost to
// innermost: request-ID tagging, structured logging, tracing, panic
// recovery, metrics instrumentation, load shedding, per-request timeout.
// The limiter sits inside instrumentation so shed requests still appear
// in the 429 counters. `timed` is separate from `limited` because the
// timeout middleware buffers the whole response (and hides
// http.Flusher), which would break streaming endpoints: /v1/load counts
// against the in-flight ceiling but streams NDJSON unbuffered. `traced`
// marks API routes whose requests record a span tree; probe and debug
// endpoints skip tracing so scrapes don't churn the trace rings.
func (s *Server) route(mux *http.ServeMux, pattern, routeName string, limited, timed, traced bool, h http.Handler) {
	if timed {
		h = s.timeout(h)
	}
	if limited {
		h = s.limit(h)
	}
	h = s.instrument(routeName, h)
	h = s.recoverPanics(h)
	if traced {
		h = s.trace(routeName, h)
	}
	h = s.logRequests(routeName, h)
	h = withRequestID(h)
	mux.Handle(pattern, h)
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// /healthz and /metrics bypass the limiter and timeout so probes and
	// scrapes keep answering while the API sheds load.
	s.route(mux, "GET /healthz", "/healthz", false, false, false, http.HandlerFunc(s.handleHealth))
	s.route(mux, "GET /metrics", "/metrics", false, false, false, http.HandlerFunc(s.handleMetrics))
	// /v1/load is limited but not timed: bulk ingest streams per-document
	// status lines, which the buffering TimeoutHandler would swallow, and
	// a large upload may legitimately outlast the request timeout.
	s.route(mux, "POST /v1/load", "/v1/load", true, false, true, http.HandlerFunc(s.handleLoad))
	s.route(mux, "POST /v1/query", "/v1/query", true, true, true, http.HandlerFunc(s.handleQuery))
	// /v1/results is limited but not timed for the same reason as
	// /v1/load: ?stream=1 emits NDJSON through http.Flusher, which the
	// buffering TimeoutHandler would hide, and a full-corpus retrieval
	// may legitimately outlast the request timeout.
	s.route(mux, "POST /v1/results", "/v1/results", true, false, true, http.HandlerFunc(s.handleResults))
	// /v1/sql is limited but not timed: ?stream=1 emits NDJSON through
	// http.Flusher, which the buffering TimeoutHandler would hide.
	s.route(mux, "POST /v1/sql", "/v1/sql", true, false, true, http.HandlerFunc(s.handleSQL))
	s.route(mux, "GET /v1/stats", "/v1/stats", true, true, true, http.HandlerFunc(s.handleStats))
	s.route(mux, "GET /v1/compare", "/v1/compare", true, true, true, http.HandlerFunc(s.handleCompare))
	s.route(mux, "POST /v1/diagnose", "/v1/diagnose", true, true, true, http.HandlerFunc(s.handleDiagnose))
	s.route(mux, "GET /v1/attributes", "/v1/attributes", true, true, true, http.HandlerFunc(s.handleAttributes))
	s.route(mux, "GET /v1/reports/{name}", "/v1/reports", true, true, true, http.HandlerFunc(s.handleReport))
	// Debug surface: untraced (reading traces must not write traces) and
	// unlimited, so diagnosis works while the API sheds load.
	s.route(mux, "GET /v1/debug/traces", "/v1/debug/traces", false, false, false, http.HandlerFunc(s.handleDebugTraces))
	s.route(mux, "GET /v1/debug/traces/{id}", "/v1/debug/trace", false, false, false, http.HandlerFunc(s.handleDebugTrace))
	s.route(mux, "GET /v1/debug/selfptdf", "/v1/debug/selfptdf", false, false, false, http.HandlerFunc(s.handleSelfPTdf))
	s.route(mux, "GET /v1/debug/queries", "/v1/debug/queries", false, false, false, http.HandlerFunc(s.handleDebugQueries))
	s.route(mux, "GET /v1/debug/selfdiagnose", "/v1/debug/selfdiagnose", false, false, false, http.HandlerFunc(s.handleSelfDiagnose))
	return mux
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http.
func (s *Server) Serve(l net.Listener) error {
	s.log.Info("serving", "addr", l.Addr().String(), "read_only", s.cfg.ReadOnly,
		"max_in_flight", s.cfg.MaxInFlight, "timeout", s.cfg.RequestTimeout)
	if s.selfmon != nil {
		s.selfmon.Start()
	}
	return s.httpSrv.Serve(l)
}

// ListenAndServe binds addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains in-flight requests (bounded by ctx), then checkpoints
// the store's engine: everything ingested over the network goes into
// segments, and perftrack.wal back to the schema.
func (s *Server) Shutdown(ctx context.Context) error {
	s.log.Info("shutting down, draining in-flight requests")
	if s.selfmon != nil {
		s.selfmon.Stop()
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if err := s.store.Engine().Checkpoint(); err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	s.log.Info("checkpoint complete")
	return nil
}
