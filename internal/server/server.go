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
	"cmp"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
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

	// RequestTimeout is the deadline of each api-class request (see
	// routeClass); 0 means the default of 30s. The probes and the two
	// stream routes, /v1/load and /v1/results, have none.
	RequestTimeout time.Duration

	// Log receives structured lines (one per request plus lifecycle
	// events, and net/http's own error lines at error level). Nil means
	// no logging.
	Log *slog.Logger

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
	traceBuffer   = 256 // completed (and, separately, slow) traces kept for /v1/debug/traces and /v1/debug/queries
	selfMonWindow = 64  // telemetry samples the self-monitor retains
)

// Server is the ptserved HTTP service.
type Server struct {
	cfg       Config
	store     *datastore.Store
	metrics   *serverMetrics
	tracer    *obs.Tracer
	log       *slog.Logger
	sem       chan struct{}
	httpSrv   *http.Server
	planCache *planner.ResultCache
	selfmon   *selfmon.Sampler // nil when disabled

	selfPrev selfSnapshot // the last interval sample's counters; Collect calls never overlap

	// injectDelay stretches every request by the given nanoseconds — a
	// fault-injection hook for the self-diagnosis tests.
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
		log:       cmp.Or(cfg.Log, slog.New(slog.NewTextHandler(io.Discard, nil))),
		sem:       make(chan struct{}, cfg.MaxInFlight),
		planCache: planner.NewResultCache(0),
	}
	s.metrics.registerPlanCache(s.planCache)
	s.tracer = obs.NewTracer(traceBuffer, cfg.SlowRequestThreshold, func(tr *obs.Trace) {
		s.log.Warn("slow request", "rid", tr.ID(), "route", tr.Name(),
			"dur", tr.Duration(), "spans", tr.SpanCount())
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
		// net/http's own error lines: failed accepts, malformed
		// requests, superfluous WriteHeader calls.
		ErrorLog: slog.NewLogLogger(s.log.Handler(), slog.LevelError),
	}
	return s, nil
}

// Handler returns the fully wired HTTP handler. A route's class says
// whether it is traced, limited and timed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.route("/healthz", probe, s.handleHealth))
	mux.Handle("GET /metrics", s.route("/metrics", probe, s.handleMetrics))
	mux.Handle("POST /v1/load", s.route("/v1/load", stream, s.handleLoad))
	mux.Handle("POST /v1/query", s.route("/v1/query", api, s.handleQuery))
	mux.Handle("POST /v1/results", s.route("/v1/results", stream, s.handleResults))
	mux.Handle("POST /v1/sql", s.route("/v1/sql", api, s.handleSQL))
	mux.Handle("GET /v1/stats", s.route("/v1/stats", api, s.handleStats))
	mux.Handle("GET /v1/compare", s.route("/v1/compare", api, s.handleCompare))
	mux.Handle("POST /v1/diagnose", s.route("/v1/diagnose", api, s.handleDiagnose))
	mux.Handle("GET /v1/attributes", s.route("/v1/attributes", api, s.handleAttributes))
	mux.Handle("GET /v1/reports/{name}", s.route("/v1/reports", api, s.handleReport))
	mux.Handle("GET /v1/debug/traces", s.route("/v1/debug/traces", probe, s.handleDebugTraces))
	mux.Handle("GET /v1/debug/traces/{id}", s.route("/v1/debug/trace", probe, s.handleDebugTrace))
	mux.Handle("GET /v1/debug/selfptdf", s.route("/v1/debug/selfptdf", probe, s.handleSelfPTdf))
	mux.Handle("GET /v1/debug/queries", s.route("/v1/debug/queries", probe, s.handleDebugQueries))
	mux.Handle("GET /v1/debug/selfdiagnose", s.route("/v1/debug/selfdiagnose", probe, s.handleSelfDiagnose))
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

// Shutdown drains in-flight requests (bounded by ctx) — a request is in
// flight until its handler returns, timed out or not — then checkpoints
// the store's engine: everything ingested over the network goes into
// segments, and the commit log back to the schema.
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
