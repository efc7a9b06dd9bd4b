package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
)

// maxRequestBody bounds JSON request bodies. PTdf uploads on /v1/load
// are streamed and exempt.
const maxRequestBody = 1 << 20

// maxBulkWorkers caps the per-request decode parallelism a client may ask
// for on a multi-document load.
const maxBulkWorkers = 32

// statusOf maps a store error class onto an HTTP status: missing
// entities are 404, identity conflicts 409, malformed input 400, and
// anything unclassified keeps the handler's fallback.
func statusOf(err error, fallback int) int {
	switch {
	case errors.Is(err, datastore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, datastore.ErrExists):
		return http.StatusConflict
	case errors.Is(err, datastore.ErrBadSpec):
		return http.StatusBadRequest
	}
	return fallback
}

// writeError answers err as the v1 error envelope. An error from an
// ended context (the deadline passed, or the client left) gets the 503
// envelope route gives a timed-out request.
func writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeErrorString(w, r, http.StatusServiceUnavailable, "request timed out")
		return
	}
	writeErrorString(w, r, statusOf(err, code), err.Error())
}

func writeErrorString(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, ErrorResponse{APIVersion: APIVersion, Error: msg, RequestID: RequestIDFromContext(r.Context())})
}

// decodeJSON reads a bounded JSON body into v. Decoding is strict:
// unknown fields are a 400, part of the v1 wire contract.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("empty request body")
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		APIVersion: APIVersion,
		Status:     "ok",
		ReadOnly:   s.cfg.ReadOnly,
		Generation: s.store.Generation(),
	})
}

// handleMetrics serves the exposition, content-negotiated on Accept:
// scrapers that accept application/openmetrics-text get the OpenMetrics
// body (histogram exemplars, terminating "# EOF"); everyone else gets
// the plain 0.0.4 format, which must stay exemplar-free because that
// parser rejects trailing content after a sample value.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.metrics.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}

// acceptsOpenMetrics reports whether an Accept header offers the
// OpenMetrics media type with a non-zero quality.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil || mt != "application/openmetrics-text" {
			continue
		}
		if q, ok := params["q"]; ok {
			if v, err := strconv.ParseFloat(q, 64); err == nil && v <= 0 {
				continue
			}
		}
		return true
	}
	return false
}

// handleLoad ingests PTdf. A plain body is one document, applied
// transactionally (one batch commit) with a JSON LoadResponse. A
// multipart body is a stream of documents: parts decode in parallel
// (bounded by the j query parameter, capped at maxBulkWorkers) and
// commit one batch each in part order, and the response streams one
// NDJSON status line per document plus a Done summary line. Failure is
// per document — a bad part rolls back alone and the remaining parts
// still commit.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly {
		writeErrorString(w, r, http.StatusForbidden, "store is read-only")
		return
	}
	ct, params, ctErr := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ctErr == nil && strings.HasPrefix(ct, "multipart/") {
		s.handleBulkLoad(w, r, params["boundary"])
		return
	}
	stats, err := s.store.LoadPTdfCtx(r.Context(), r.Body)
	if err != nil {
		// Within an uploaded document, dangling references are the
		// document's fault, not a missing URI: report 400, not 404.
		code := http.StatusBadRequest
		if errors.Is(err, datastore.ErrExists) {
			code = http.StatusConflict
		}
		writeErrorString(w, r, code, err.Error())
		return
	}
	s.log.Info("load", "records", stats.Records, "results", stats.Results,
		"resources", stats.Resources, "rid", RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, LoadResponse{APIVersion: APIVersion, Stats: stats, Generation: s.store.Generation()})
}

// bulkWorkers parses the j query parameter.
func bulkWorkers(q url.Values) (int, error) {
	raw := q.Get("j")
	if raw == "" {
		return min(runtime.GOMAXPROCS(0), maxBulkWorkers), nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad j parameter %q, want a positive integer", raw)
	}
	return min(n, maxBulkWorkers), nil
}

func (s *Server) handleBulkLoad(w http.ResponseWriter, r *http.Request, boundary string) {
	if boundary == "" {
		writeErrorString(w, r, http.StatusBadRequest, "multipart load without boundary")
		return
	}
	workers, err := bulkWorkers(r.URL.Query())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	// Status lines go out while later parts are still being read. Without
	// full duplex, net/http discards the unread body at the first flush,
	// and the parts behind it silently never arrive. Only a writer that
	// holds the whole reply anyway (a test's recorder) refuses it.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	mr := multipart.NewReader(r.Body, boundary)
	parts := 0
	// Parts must be read sequentially off the request body, so each is
	// buffered before being handed to a parallel decode worker; the
	// pipeline's bounded window (2×workers documents) is the memory bound.
	next := func() (string, io.ReadCloser, error) {
		part, err := mr.NextPart()
		if err != nil {
			return "", nil, err // io.EOF ends the stream; anything else aborts it
		}
		parts++
		name := part.FileName()
		if name == "" {
			name = part.FormName()
		}
		if name == "" {
			name = fmt.Sprintf("doc-%d", parts)
		}
		buf, err := io.ReadAll(part)
		if err != nil {
			return "", nil, fmt.Errorf("reading part %q: %w", name, err)
		}
		return name, io.NopCloser(bytes.NewReader(buf)), nil
	}

	var total datastore.LoadStats
	docs, failed := 0, 0
	srcErr := s.store.BulkLoadStreamCtx(r.Context(), next, workers, func(dr datastore.DocResult) {
		docs++
		line := LoadDocStatus{APIVersion: APIVersion, Doc: dr.Name}
		if dr.Err != nil {
			failed++
			line.Error = dr.Err.Error()
		} else {
			total.Add(dr.Stats)
			line.Stats = dr.Stats
			line.Generation = s.store.Generation()
		}
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	})
	summary := LoadDocStatus{
		APIVersion: APIVersion,
		Done:       true,
		Docs:       docs,
		Failed:     failed,
		Stats:      total,
		Generation: s.store.Generation(),
	}
	if srcErr != nil && srcErr != io.EOF {
		summary.Error = srcErr.Error()
	}
	enc.Encode(summary)
	s.log.Info("bulk load", "docs", docs, "failed", failed,
		"records", total.Records, "j", workers, "rid", RequestIDFromContext(r.Context()))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	sel := req.Select.WithFamilies(req.Families)
	res, err := query.Resolve(r.Context(), s.store, sel)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	es := s.store.QueryEngineStats()
	resp := QueryResponse{
		APIVersion:  APIVersion,
		Families:    res.Counts,
		Matches:     res.Len(),
		Generation:  es.Generation,
		CacheHits:   es.CacheHits,
		CacheMisses: es.CacheMisses,
	}
	if req.Explain {
		resp.Plan = planner.PRFilterPlan(s.store, sel, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Limit < 0 {
		writeErrorString(w, r, http.StatusBadRequest, "limit must be >= 0")
		return
	}
	sel := req.Select.WithFamilies(req.Families)
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		s.handleResultsStream(w, r, req, sel)
		return
	}
	if req.Cursor != "" && req.Limit <= 0 {
		writeErrorString(w, r, http.StatusBadRequest, "cursor requires a positive limit")
		return
	}
	res, err := query.Resolve(r.Context(), s.store, sel)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	// Pagination: the cursor is bound to the refinements (but not the
	// page size) via a fingerprint, so a cursor replayed against a
	// different query is a 400 rather than a silently wrong page.
	sigFields := append([]string{strconv.Itoa(len(sel.Families))}, sel.Families...)
	sigFields = append(sigFields, sel.ExecutionList()...)
	sigFields = append(sigFields, req.Metric,
		strings.Join(req.AddColumns, ","), strings.Join(req.AddAttributes, ","),
		req.SortBy, strconv.FormatBool(req.Descending))
	sig := cursorSig(sigFields...)
	offset := 0
	if req.Cursor != "" {
		parts, err := decodeCursor(req.Cursor, "r1", 3)
		if err != nil {
			writeErrorString(w, r, http.StatusBadRequest, err.Error())
			return
		}
		off, convErr := strconv.Atoi(parts[1])
		if convErr != nil || off < 0 {
			writeErrorString(w, r, http.StatusBadRequest, "bad cursor")
			return
		}
		if parts[2] != sig {
			writeErrorString(w, r, http.StatusBadRequest, "cursor does not match this request")
			return
		}
		offset = off
	}
	tbl, total, err := query.Page(r.Context(), s.store, res.IDs(), query.Refinement{
		Metric: req.Metric, AddColumns: req.AddColumns, AddAttributes: req.AddAttributes,
		SortBy: req.SortBy, Descending: req.Descending,
	}, offset, req.Limit)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	next := ""
	if req.Limit > 0 && total-offset > req.Limit {
		next = encodeCursor("r1", strconv.Itoa(offset+req.Limit), sig)
	}
	cols := tbl.Columns()
	out := make([][]string, len(tbl.Rows))
	cells := make([]string, len(tbl.Rows)*len(cols)) // every row's, one block
	for i, row := range tbl.Rows {
		out[i] = cells[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			out[i][j] = tbl.Cell(row, c)
		}
	}
	writeJSON(w, http.StatusOK, ResultsResponse{
		APIVersion: APIVersion, Columns: cols, Rows: out, Total: total, NextCursor: next,
	})
}

// errStreamLimit aborts MaterializeStreamCtx once the row limit is reached.
var errStreamLimit = errors.New("stream limit reached")

// resultStreamChunk bounds how many results are materialized (and held
// in memory) per emitted NDJSON burst.
const resultStreamChunk = 2048

// handleResultsStream is POST /v1/results?stream=1: evaluate the
// pr-filter once, then materialize and emit matching results in bounded
// chunks as NDJSON, so neither side holds a full-corpus retrieval in
// memory. Refinements that need the whole result set (sorting, added
// columns) are rejected; the metric filter and row limit apply per row.
func (s *Server) handleResultsStream(w http.ResponseWriter, r *http.Request, req ResultsRequest, sel *Selection) {
	if len(req.AddColumns) > 0 || len(req.AddAttributes) > 0 || req.SortBy != "" {
		writeErrorString(w, r, http.StatusBadRequest,
			"stream=1 supports selection, metric, and limit only (sorting and added columns need the full result set)")
		return
	}
	if req.Cursor != "" {
		writeErrorString(w, r, http.StatusBadRequest, "stream=1 does not paginate; use limit, or the buffered form with a cursor")
		return
	}
	res, err := query.Resolve(r.Context(), s.store, sel)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	ids := res.IDs()
	total := len(ids)
	if req.Metric == "" && req.Limit > 0 && len(ids) > req.Limit {
		ids = ids[:req.Limit]
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := newNDJSON(w)
	defer enc.Release()
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	rs := &resultStream{enc: enc}
	if err := rs.send(ResultStreamLine{APIVersion: APIVersion, Columns: query.FixedColumns, Total: total}); err != nil {
		return
	}
	flush()
	emitted := 0
	err = s.store.MaterializeStreamCtx(r.Context(), ids, datastore.MaterializeOptions{ChunkSize: resultStreamChunk},
		func(batch []*core.PerformanceResult) error {
			for _, pr := range batch {
				if req.Metric != "" && pr.Metric != req.Metric {
					continue
				}
				if err := rs.sendRow(pr); err != nil {
					return err
				}
				emitted++
				if req.Limit > 0 && emitted >= req.Limit {
					return errStreamLimit
				}
			}
			flush()
			return nil
		})
	if err != nil && !errors.Is(err, errStreamLimit) {
		// Headers are gone; all we can do is report in-band and stop
		// before the Done line so the client sees a truncated stream.
		s.log.Warn("results stream aborted", "err", err, "rid", RequestIDFromContext(r.Context()))
		rs.send(ResultStreamLine{APIVersion: APIVersion, Error: err.Error()})
		flush()
		return
	}
	rs.send(ResultStreamLine{APIVersion: APIVersion, Done: true, Rows: emitted})
	flush()
	s.log.Debug("results stream", "rows", emitted, "total", total, "rid", RequestIDFromContext(r.Context()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es, seg := s.store.Engine().Stats(), s.store.Engine().SegmentStats()
	resp := StatsResponse{
		APIVersion: APIVersion,
		Store:      s.store.Stats(),
		Engine:     s.store.QueryEngineStats(),
		Storage:    StorageStats{Kind: es.Kind, Engine: es, Segments: &seg},
		Statistics: s.store.TableStatistics(),
	}
	pc := s.planCache.Stats()
	resp.PlanCache = &pc
	writeJSON(w, http.StatusOK, resp)
}

// finite maps NaN and ±Inf — which JSON cannot carry — to 0.
func finite(f float64) float64 {
	if f != f || f > 1e308 || f < -1e308 {
		return 0
	}
	return f
}

func wirePair(p compare.Pair) ComparePair {
	wp := ComparePair{
		Metric:     p.Metric,
		A:          finite(p.A),
		B:          finite(p.B),
		Units:      p.Units,
		Difference: finite(p.Difference()),
		Ratio:      finite(p.Ratio()),
		Speedup:    finite(p.Speedup()),
	}
	for _, r := range p.Context {
		wp.Context = append(wp.Context, string(r))
	}
	return wp
}

// handleCompare aligns two executions with compare.Sets under the
// request context: GET /v1/compare?a=&b= with optional metric, threshold
// (default 0.10), and top (default 10) parameters. An unknown execution
// is a 404.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for key := range q {
		switch key {
		case "a", "b", "metric", "threshold", "top":
		default:
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("unknown query parameter %q", key))
			return
		}
	}
	a, b := q.Get("a"), q.Get("b")
	if a == "" || b == "" {
		writeErrorString(w, r, http.StatusBadRequest, "a and b query parameters are required")
		return
	}
	threshold := 0.10
	if raw := q.Get("threshold"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("bad threshold %q", raw))
			return
		}
		threshold = v
	}
	top := 10
	if raw := q.Get("top"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("bad top %q", raw))
			return
		}
		top = v
	}

	cmp, err := compare.Sets(r.Context(), s.store, []string{a}, []string{b})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, newCompareResponse(cmp, q.Get("metric"), threshold, top))
}

// newCompareResponse converts a comparison into its wire form: the
// metric filter applied, then the summary, the pairs, regressions and
// improvements beyond threshold, and the top bottlenecks.
func newCompareResponse(cmp *compare.Comparison, metric string, threshold float64, top int) CompareResponse {
	if metric != "" {
		cmp = cmp.FilterMetric(metric)
	}
	sum := cmp.Summarize()
	resp := CompareResponse{
		APIVersion: APIVersion,
		ExecA:      cmp.ExecA,
		ExecB:      cmp.ExecB,
		Summary: CompareSummary{
			Paired:       sum.Paired,
			OnlyA:        sum.OnlyA,
			OnlyB:        sum.OnlyB,
			GeoMeanRatio: finite(sum.GeoMeanRatio),
			MeanDiff:     finite(sum.MeanDiff),
		},
	}
	for _, p := range cmp.Pairs {
		resp.Pairs = append(resp.Pairs, wirePair(p))
	}
	for _, reg := range cmp.Regressions(threshold) {
		resp.Regressions = append(resp.Regressions, CompareDelta{Pair: wirePair(reg.Pair), Percent: finite(reg.Percent)})
	}
	for _, imp := range cmp.Improvements(threshold) {
		resp.Improvements = append(resp.Improvements, CompareDelta{Pair: wirePair(imp.Pair), Percent: finite(imp.Percent)})
	}
	for _, f := range compare.Rank(cmp.Pairs, metric, top) {
		resp.Bottlenecks = append(resp.Bottlenecks, CompareFinding{
			Pair: wirePair(f.Pair), Delta: finite(f.Delta), Contribution: finite(f.Contribution),
		})
	}
	return resp
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var (
		items []string
		err   error
	)
	switch name {
	case "executions":
		items, err = s.store.Executions()
	case "metrics":
		items, err = s.store.Metrics()
	case "applications":
		items, err = s.store.Applications()
	case "tools":
		items, err = s.store.Tools()
	case "stats":
		// Kept for wire compatibility; GET /v1/stats is the primary form.
		s.handleStats(w, r)
		return
	default:
		writeErrorString(w, r, http.StatusNotFound,
			fmt.Sprintf("unknown report %q (want executions, metrics, applications, tools, or stats)", name))
		return
	}
	if err != nil {
		writeError(w, r, statusOf(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, ReportResponse{APIVersion: APIVersion, Report: name, Items: items})
}
