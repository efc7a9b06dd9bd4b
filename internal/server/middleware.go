package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"perftrack/internal/obs"
)

// ctxKey is the private context-key type for request-scoped values.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestIDFromContext returns the request's ID tag, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// statusRecorder captures the status code and body size written by a
// handler so route's epilogue can report them.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.code == 0 {
		sr.code = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so the NDJSON streams reach
// the client as they are written.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// requestIDChars are the bytes of an X-Request-Id the server keeps.
const requestIDChars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._:-"

// requestID returns the client's X-Request-Id when it is 1–64 bytes of
// requestIDChars, and a new ID otherwise: a trace keeps its ID, so the
// trace rings' bound on traces must bound the client text they hold.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 64 || strings.Trim(id, requestIDChars) != "" {
		return newRequestID()
	}
	return id
}

// newRequestID returns a 16-hex-char random tag.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// routeClass is how much of the request envelope a route gets.
type routeClass int

const (
	// probe routes (/healthz, /metrics, /v1/debug/*) are neither traced
	// (reading traces must not write traces), limited nor timed, so
	// probes, scrapes and diagnosis keep answering while the API sheds
	// load.
	probe routeClass = iota
	// api routes are traced, limited, and run under the request deadline.
	api
	// stream routes (/v1/load, /v1/results) are traced and limited but
	// have no deadline: a large upload or a full-corpus retrieval may
	// legitimately outlast it.
	stream
)

// testContext, nil but in tests, replaces an api route's request context
// with one it derives from it, deadline and all.
var testContext func(context.Context) context.Context

// route is the one request wrapper. It tags the request with an ID
// (honoring an X-Request-Id the caller sent, and echoing it), opens the
// root span of non-probe routes, sheds them with 429 + Retry-After
// beyond the in-flight ceiling, and runs the handler inline on the
// serving goroutine, under the request deadline on api routes. One
// deferred epilogue answers a panic with the 500 envelope and an ended
// context the handler left unanswered with the 503 one, then records the
// request's metrics, trace status and log line. The limiter slot, the
// in-flight gauge and Shutdown's drain therefore last exactly as long as
// the handler's work. The injectDelay fault hook stretches every request
// by a fixed amount; the self-diagnosis tests use it to plant a slowdown
// that flows through the real latency histograms and slow-trace
// detection.
func (s *Server) route(name string, class routeClass, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)
		var span *obs.Span
		if class != probe {
			ctx, span = s.tracer.StartTrace(ctx, id, name)
			span.Annotate("method", r.Method)
			if p := r.URL.Path; p != name {
				span.Annotate("path", p[:min(len(p), 256)]) // bounded, as the ID is
			}
		}
		if class == api {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
			if testContext != nil {
				ctx = testContext(ctx)
			}
		}
		r = r.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: w}
		s.metrics.inFlight.Add(1)
		defer func() {
			v := recover()
			switch {
			case v == http.ErrAbortHandler:
				// net/http's own abort: recorded below, then re-raised.
			case v != nil:
				s.log.Error("panic", "err", v, "rid", id, "stack", string(debug.Stack()))
				if sr.code == 0 {
					writeErrorString(sr, r, http.StatusInternalServerError, "internal error")
				}
				sr.code = http.StatusInternalServerError
			case sr.code == 0 && ctx.Err() != nil:
				writeErrorString(sr, r, http.StatusServiceUnavailable, "request timed out")
			}
			if sr.code == 0 {
				sr.code = http.StatusOK
			}
			s.metrics.inFlight.Add(-1)
			s.metrics.observe(name, sr.code, time.Since(start), id)
			span.Annotate("status", strconv.Itoa(sr.code))
			span.End()
			s.log.Info("request",
				"method", r.Method, "route", name, "path", r.URL.Path,
				"status", sr.code, "bytes", sr.bytes,
				"dur", time.Since(start).Round(time.Microsecond),
				"rid", id, "remote", r.RemoteAddr)
			if v == http.ErrAbortHandler {
				panic(v)
			}
		}()
		if class != probe {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.shed.Add(1)
				s.log.Debug("shed", "route", r.URL.Path, "rid", id)
				w.Header().Set("Retry-After", "1")
				writeErrorString(sr, r, http.StatusTooManyRequests, "server at capacity")
				return
			}
		}
		if d := s.injectDelay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		h(sr, r)
	})
}
