package server

import (
	"math"
	"net/http"
	"strings"
	"time"

	"perftrack/internal/planner"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// sqlCell converts one SQL value into its JSON form: SQL NULL and
// non-finite floats (which JSON cannot carry) become null.
func sqlCell(v reldb.Value) any {
	switch v.Kind() {
	case reldb.KindInt:
		return v.Int64()
	case reldb.KindFloat:
		f := v.Float64()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		return f
	case reldb.KindString:
		return v.Text()
	case reldb.KindBool:
		return v.Truth()
	}
	return nil
}

func sqlRow(row reldb.Row) []any {
	return appendSQLRow(make([]any, 0, len(row)), row)
}

// appendSQLRow converts a row into dst, reusing its backing array —
// the streaming encoder recycles one slice across every emitted row.
func appendSQLRow(dst []any, row reldb.Row) []any {
	for _, v := range row {
		dst = append(dst, sqlCell(v))
	}
	return dst
}

// handleSQL is POST /v1/sql: one SELECT planned and executed against the
// store's virtual catalog by the cost-based planner (internal/planner).
// The buffered form replies with SQLResponse; ?stream=1 emits NDJSON
// SQLStreamLines through http.Flusher for results too large to buffer
// (the route is unlimited by the timeout handler for the same reason as
// /v1/results). Parse, plan, and catalog errors are 400s.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req SQLRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeErrorString(w, r, http.StatusBadRequest, "sql is required")
		return
	}
	if req.Limit < 0 {
		writeErrorString(w, r, http.StatusBadRequest, "limit must be >= 0")
		return
	}
	pl := planner.New(s.store)
	pl.Cache = s.planCache
	start := time.Now()
	res, plan, err := pl.Query(r.Context(), req.SQL)
	rec := queryRecord{
		SQL:       req.SQL,
		RequestID: RequestIDFromContext(r.Context()),
		Start:     start,
		Duration:  time.Since(start),
	}
	if err != nil {
		rec.Error = err.Error()
		s.queries.add(rec)
		writeError(w, r, statusOf(err, http.StatusInternalServerError), err)
		return
	}
	rec.Strategy = plan.Strategy
	rec.CacheHit = plan.CacheHit
	rec.Rows = len(res.Rows)
	rec.Profile = plan.ProfileWire()
	s.queries.add(rec)
	s.log.Debug("sql", "strategy", plan.Strategy, "rows", len(res.Rows),
		"est", plan.EstRows, "actual", plan.ActualRows, "cache_hit", plan.CacheHit,
		"rid", RequestIDFromContext(r.Context()))
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		s.streamSQL(w, res, req, sqlPlanWire(plan, req))
		return
	}
	writeJSON(w, http.StatusOK, NewSQLResponse(res, plan, req))
}

// sqlPlanWire is the plan a request asked to see: with its execution
// profile for Analyze, without for Explain, nil otherwise.
func sqlPlanWire(plan *planner.Plan, req SQLRequest) *PlanWire {
	switch {
	case req.Analyze:
		return plan.WireAnalyze()
	case req.Explain:
		return plan.Wire()
	}
	return nil
}

// NewSQLResponse builds the buffered /v1/sql reply for an executed
// statement, applying the request's Limit. ptsql -db builds the same
// body locally, so both of its doors print through one function.
func NewSQLResponse(res *sqldb.Result, plan *planner.Plan, req SQLRequest) SQLResponse {
	rows := res.Rows
	truncated := false
	if req.Limit > 0 && len(rows) > req.Limit {
		rows = rows[:req.Limit]
		truncated = true
	}
	resp := SQLResponse{
		APIVersion: APIVersion,
		Columns:    res.Columns,
		Rows:       make([][]any, 0, len(rows)),
		RowCount:   len(res.Rows),
		Truncated:  truncated,
		Plan:       sqlPlanWire(plan, req),
	}
	for _, row := range rows {
		resp.Rows = append(resp.Rows, sqlRow(row))
	}
	return resp
}

// streamSQL emits a completed result set as NDJSON. sqldb results are
// already materialized (the planner's pushed aggregation keeps them
// small when possible); streaming bounds the response encoding, not the
// execution.
func (s *Server) streamSQL(w http.ResponseWriter, res *sqldb.Result, req SQLRequest, plan *PlanWire) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := newNDJSON(w)
	defer enc.Release()
	flusher, _ := w.(http.Flusher)
	if err := enc.Encode(SQLStreamLine{APIVersion: APIVersion, Columns: res.Columns}); err != nil {
		return
	}
	emitted := 0
	var rowBuf []any // one backing array for every emitted line
	for _, row := range res.Rows {
		if req.Limit > 0 && emitted >= req.Limit {
			break
		}
		rowBuf = appendSQLRow(rowBuf[:0], row)
		if err := enc.Encode(SQLStreamLine{APIVersion: APIVersion, Row: rowBuf}); err != nil {
			return
		}
		emitted++
		if emitted%resultStreamChunk == 0 && flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(SQLStreamLine{APIVersion: APIVersion, Done: true, Rows: emitted, Plan: plan})
	if flusher != nil {
		flusher.Flush()
	}
}
