package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"perftrack/internal/obs"
	"perftrack/internal/obs/selfmon"
)

// debugTraceLimit is the default (and maximum) number of traces listed
// by GET /v1/debug/traces.
const debugTraceLimit = 100

func wireTraceSummary(d obs.TraceData) TraceSummary {
	return TraceSummary{
		ID:         d.ID,
		Route:      d.Name,
		Start:      d.Start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(d.Duration) / float64(time.Millisecond),
		Slow:       d.Slow,
		Spans:      len(d.Spans),
	}
}

// listParams parses the parameters of the debug list routes: ?limit=N
// (at most debugTraceLimit, the default) and ?slow=1|true. A bad limit
// is answered with 400 and ok false.
func listParams(w http.ResponseWriter, r *http.Request) (limit int, slow, ok bool) {
	q := r.URL.Query()
	limit = debugTraceLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("bad limit %q", raw))
			return 0, false, false
		}
		limit = min(n, debugTraceLimit)
	}
	slow = q.Get("slow") == "1" || q.Get("slow") == "true"
	return limit, slow, true
}

// handleDebugTraces lists completed traces, newest first. ?slow=1 reads
// the slow ring instead of the recent one; ?limit=N caps the list.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	limit, slow, ok := listParams(w, r)
	if !ok {
		return
	}
	traces := s.tracer.Traces(slow)
	traces = traces[:min(limit, len(traces))]
	resp := TracesResponse{APIVersion: APIVersion, Slow: slow, Traces: make([]TraceSummary, 0, len(traces))}
	for _, tr := range traces {
		resp.Traces = append(resp.Traces, wireTraceSummary(tr.Data()))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugTrace returns the full span tree of one trace by request
// ID. A trace is findable as long as it survives in the recent or slow
// ring; an evicted or unknown ID is a 404.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, ok := s.tracer.Find(id)
	if !ok {
		writeErrorString(w, r, http.StatusNotFound,
			fmt.Sprintf("no trace for request ID %q (evicted or never traced)", id))
		return
	}
	resp := TraceResponse{APIVersion: APIVersion, Trace: wireTraceSummary(d)}
	for _, sp := range d.Spans {
		sw := SpanWire{
			Index:      sp.ID,
			Parent:     sp.Parent,
			Name:       sp.Name,
			OffsetMS:   float64(sp.Start.Sub(d.Start)) / float64(time.Millisecond),
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
		}
		if len(sp.Annotations) > 0 {
			sw.Annotations = make(map[string]string, len(sp.Annotations))
			for _, a := range sp.Annotations {
				sw.Annotations[a.Key] = a.Value
			}
		}
		resp.Spans = append(resp.Spans, sw)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSelfPTdf serializes the server's own telemetry as a loadable
// PTdf document: PerfTrack eating its own dog food. The server becomes
// an application, this process an execution, the host a grid/machine
// resource, and every per-route latency quantile and store counter a
// PerfResult — so ptserved's performance can be loaded into a PerfTrack
// store (even its own) and diagnosed like any parallel application. The
// selfmon sampler behind /v1/debug/selfdiagnose builds the same records.
func (s *Server) handleSelfPTdf(w http.ResponseWriter, r *http.Request) {
	host := hostname()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	err := selfmon.WriteDoc(w, selfmon.DocSpec{
		App:     "ptserved",
		Exec:    "ptserved-" + host,
		Host:    host,
		Comment: "ptserved self-profile, generated " + time.Now().UTC().Format(time.RFC3339),
	}, s.selfPTdfSample())
	if err != nil {
		s.log.Warn("selfptdf write", "err", err, "rid", RequestIDFromContext(r.Context()))
	}
}

// handleDebugQueries is a view of the trace rings: the /v1/sql requests
// whose trace carries a sqlCapture, with their EXPLAIN ANALYZE
// profiles, newest first. Start, duration and slowness are the
// request's, from its trace. ?slow=1 reads the slow ring; ?limit=N caps
// the list.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	limit, slow, ok := listParams(w, r)
	if !ok {
		return
	}
	resp := QueriesResponse{APIVersion: APIVersion, Slow: slow, Queries: []QueryProfileWire{}}
	for _, tr := range s.tracer.Traces(slow) {
		if len(resp.Queries) == limit {
			break
		}
		c, ok := tr.Attachment().(*sqlCapture)
		if !ok {
			continue
		}
		d := tr.Data()
		resp.Queries = append(resp.Queries, QueryProfileWire{
			SQL:        c.sql,
			RequestID:  d.ID,
			Start:      d.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(d.Duration) / float64(time.Millisecond),
			Strategy:   c.strategy,
			CacheHit:   c.cacheHit,
			Rows:       c.rows,
			Error:      c.err,
			Slow:       d.Slow,
			Profile:    c.profile,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSelfDiagnose runs the continuous self-diagnosis: the sampler's
// retained telemetry window is split into baseline and recent slices
// and handed to the same engine as POST /v1/diagnose (side A =
// baseline, side B = recent, so a positive delta reads "recent is
// slower"). ?recent=N sizes the recent slice (default: a quarter of the
// window); ?sample=1 takes an immediate sample first, which smoke tests
// and operators use to avoid waiting out the interval.
func (s *Server) handleSelfDiagnose(w http.ResponseWriter, r *http.Request) {
	if s.selfmon == nil {
		writeErrorString(w, r, http.StatusNotFound, "self-monitoring is disabled")
		return
	}
	q := r.URL.Query()
	recentN := 0
	if raw := q.Get("recent"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("bad recent %q", raw))
			return
		}
		recentN = n
	}
	if v := q.Get("sample"); v == "1" || v == "true" {
		if err := s.selfmon.SampleNow(); err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
	}
	rep, err := s.selfmon.Diagnose(r.Context(), recentN)
	if errors.Is(err, selfmon.ErrNotEnoughSamples) {
		writeJSON(w, http.StatusOK, SelfDiagnoseResponse{
			APIVersion: APIVersion,
			Status:     err.Error(),
			Samples:    s.selfmon.Stats().Retained,
		})
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	diag := newDiagnoseResponse(rep.Result)
	s.log.Info("selfdiagnose", "samples", rep.Samples, "baseline", len(rep.Baseline),
		"recent", len(rep.Recent), "explanations", len(diag.Explanations),
		"rid", RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, SelfDiagnoseResponse{
		APIVersion: APIVersion,
		Status:     "ok",
		Samples:    rep.Samples,
		Baseline:   len(rep.Baseline),
		Recent:     len(rep.Recent),
		Diagnosis:  &diag,
	})
}
