// Command ptserved serves one PerfTrack data store over HTTP, turning
// the single-process tools into a shared experiment-management service:
// many ptload/ptquery clients (via -remote) or curl scripts can ingest
// PTdf data and run pr-filter queries concurrently against one store.
//
// Usage:
//
//	ptserved -db DIR [-addr :7075] [-readonly] [-max-inflight N]
//	         [-timeout 30s] [-sync] [-pprof addr]
//	         [-log-level info] [-slow-threshold 1s]
//	         [-storage mem|segment] [-segment-flush N]
//
// On SIGINT/SIGTERM the server drains in-flight requests, checkpoints
// the store (every table's tail into segments, the commit log back to the
// schema), and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

func main() {
	addr := flag.String("addr", ":7075", "listen address")
	dbDir := flag.String("db", "", "data store directory (required)")
	readOnly := flag.Bool("readonly", false, "reject PTdf ingest (/v1/load returns 403)")
	maxInFlight := flag.Int("max-inflight", 64, "maximum concurrently served API requests; excess is shed with 429")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline for API endpoints; the streams /v1/load and /v1/results have none")
	syncWAL := flag.Bool("sync", false, "fsync the commit log at every mutation or load: one fsync a commit")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, or error")
	slowThreshold := flag.Duration("slow-threshold", time.Second, "log requests at or over this duration and keep their traces in the slow ring (negative disables)")
	storage := flag.String("storage", "", "where the store's files live: mem (in memory; nothing lands in -db) or segment (in -db; the default)")
	segmentFlush := flag.Int64("segment-flush", 0, "compact a table once this many rows are pending (0 = engine default)")
	selfMonInterval := flag.Duration("selfmon-interval", 0, "continuous self-diagnosis sampling period (0 = default 15s, negative disables)")
	flag.Parse()

	if *dbDir == "" {
		fmt.Fprintln(os.Stderr, "ptserved: -db is required")
		flag.Usage()
		os.Exit(2)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "ptserved:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	e, err := reldb.Open(*storage, *dbDir)
	if err != nil {
		fatal(err)
	}
	eng := e.DB()
	defer eng.Close()
	eng.SetSync(*syncWAL)
	eng.SetSegmentFlushRows(*segmentFlush)
	store, err := datastore.Open(eng)
	if err != nil {
		fatal(err)
	}
	st := store.Stats()
	logger.Info("opened", "db", *dbDir, "engine", eng.Kind(),
		"executions", st.Executions, "results", st.Results, "resources", st.Resources)

	srv, err := server.New(server.Config{
		Store:                store,
		ReadOnly:             *readOnly,
		MaxInFlight:          *maxInFlight,
		RequestTimeout:       *timeout,
		Log:                  logger,
		SlowRequestThreshold: *slowThreshold,
		SelfMonInterval:      *selfMonInterval,
	})
	if err != nil {
		fatal(err)
	}

	// The profiler listens separately from the API so it bypasses the
	// limiter and stays reachable while the service sheds load; bind it
	// to localhost in production.
	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof", "url", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Serve until a termination signal, then drain and checkpoint.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	select {
	case sig := <-sigc:
		logger.Info("received", "signal", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case err := <-serveErr:
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptserved:", err)
	os.Exit(1)
}
