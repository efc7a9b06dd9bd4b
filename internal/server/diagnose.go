package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"perftrack/internal/diagnose"
)

// DiagnoseRequest is the body of POST /v1/diagnose. It is defined in the
// diagnose package (and aliased here like the other wire types) so the
// strict parser — and its fuzz target — exercise the exact wire shape
// the handler decodes.
type DiagnoseRequest = diagnose.Request

// jsonFloat encodes a float that may be NaN or ±Inf, which JSON cannot
// carry: non-finite values become nil (JSON null). Unlike /v1/compare's
// finite() — which clamps to 0 inside always-present fields — the
// diagnose response distinguishes "undefined" from "zero", so undefined
// statistics are null on the wire.
func jsonFloat(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

// DiagnoseExplanation is one ranked discriminating predicate with its
// evidence. MeanHold/MeanNot/Delta/Ratio are null when undefined (e.g.
// no measured execution on one side of the predicate).
type DiagnoseExplanation struct {
	Predicate string `json:"predicate"` // "attr op value"
	Attr      string `json:"attr"`
	Op        string `json:"op"`
	Value     string `json:"value"`

	Score    float64 `json:"score"`
	Effect   float64 `json:"effect"`
	Coverage float64 `json:"coverage"`

	MatchA   int `json:"match_a"`
	DefinedA int `json:"defined_a"`
	MatchB   int `json:"match_b"`
	DefinedB int `json:"defined_b"`

	MeanHold *float64 `json:"mean_hold,omitempty"`
	MeanNot  *float64 `json:"mean_not,omitempty"`
	Delta    *float64 `json:"delta,omitempty"`
	Ratio    *float64 `json:"ratio,omitempty"`

	MatchedB []string `json:"matched_b,omitempty"` // sample slow-side matches
	MatchedA []string `json:"matched_a,omitempty"`
}

// DiagnoseBottleneck ranks one metric by its contribution to the
// slowdown.
type DiagnoseBottleneck struct {
	Metric       string  `json:"metric"`
	Units        string  `json:"units,omitempty"`
	MeanA        float64 `json:"mean_a"`
	MeanB        float64 `json:"mean_b"`
	Delta        float64 `json:"delta"`
	Contribution float64 `json:"contribution"`
}

// DiagnoseContext is one aligned-context finding (single-execution sides
// only).
type DiagnoseContext struct {
	Context      []string `json:"context,omitempty"`
	Metric       string   `json:"metric"`
	Units        string   `json:"units,omitempty"`
	A            float64  `json:"a"`
	B            float64  `json:"b"`
	Delta        float64  `json:"delta"`
	Contribution float64  `json:"contribution"`
}

// DiagnoseResponse is the reply to POST /v1/diagnose. PerfA/PerfB/Delta/
// Ratio are null when a side has no measured executions (or, for Ratio,
// when side A's perf is zero).
type DiagnoseResponse struct {
	APIVersion   string   `json:"api_version"`
	SideA        []string `json:"side_a"`
	SideB        []string `json:"side_b"`
	Metric       string   `json:"metric,omitempty"`
	PerfA        *float64 `json:"perf_a,omitempty"`
	PerfB        *float64 `json:"perf_b,omitempty"`
	Delta        *float64 `json:"delta,omitempty"`
	Ratio        *float64 `json:"ratio,omitempty"`
	AlignedPairs int      `json:"aligned_pairs,omitempty"`
	Keys         int      `json:"keys"`
	Candidates   int      `json:"candidates"`

	Explanations []DiagnoseExplanation `json:"explanations"`
	Bottlenecks  []DiagnoseBottleneck  `json:"bottlenecks,omitempty"`
	Contexts     []DiagnoseContext     `json:"contexts,omitempty"`
	Trace        []string              `json:"trace,omitempty"`
}

// AttributeKey is one attribute key's domain summary
// (GET /v1/attributes).
type AttributeKey struct {
	Name      string   `json:"name"`
	Resources int      `json:"resources"`
	Distinct  int      `json:"distinct"`
	Numeric   bool     `json:"numeric,omitempty"`
	Min       *float64 `json:"min,omitempty"` // set only when Numeric
	Max       *float64 `json:"max,omitempty"`
	Values    []string `json:"values,omitempty"`
}

// AttributesResponse lists attribute keys, optionally filtered by name
// prefix. With ?limit= the listing is one page (in name order) and
// NextCursor is set while keys remain; pass it back as ?cursor= for the
// next page (same prefix required). See DESIGN.md §7.
type AttributesResponse struct {
	APIVersion string         `json:"api_version"`
	Prefix     string         `json:"prefix,omitempty"`
	Keys       []AttributeKey `json:"keys"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

// newDiagnoseResponse converts a diagnosis into its wire form.
func newDiagnoseResponse(res *diagnose.Result) DiagnoseResponse {
	resp := DiagnoseResponse{
		APIVersion:   APIVersion,
		SideA:        res.SideA,
		SideB:        res.SideB,
		Metric:       res.Metric,
		PerfA:        jsonFloat(res.PerfA),
		PerfB:        jsonFloat(res.PerfB),
		Delta:        jsonFloat(res.Delta),
		Ratio:        jsonFloat(res.Ratio),
		AlignedPairs: res.AlignedPairs,
		Keys:         res.Keys,
		Candidates:   res.Candidates,
		Explanations: make([]DiagnoseExplanation, 0, len(res.Explanations)),
		Trace:        res.Trace,
	}
	for _, ex := range res.Explanations {
		resp.Explanations = append(resp.Explanations, DiagnoseExplanation{
			Predicate: ex.Pred.String(),
			Attr:      ex.Pred.Attr,
			Op:        ex.Pred.Op,
			Value:     ex.Pred.Value,
			Score:     ex.Score,
			Effect:    ex.Effect,
			Coverage:  ex.Coverage,
			MatchA:    ex.MatchA,
			DefinedA:  ex.DefinedA,
			MatchB:    ex.MatchB,
			DefinedB:  ex.DefinedB,
			MeanHold:  jsonFloat(ex.MeanHold),
			MeanNot:   jsonFloat(ex.MeanNot),
			Delta:     jsonFloat(ex.Delta),
			Ratio:     jsonFloat(ex.Ratio),
			MatchedB:  ex.MatchedB,
			MatchedA:  ex.MatchedA,
		})
	}
	for _, b := range res.Bottlenecks {
		resp.Bottlenecks = append(resp.Bottlenecks, DiagnoseBottleneck{
			Metric: b.Metric, Units: b.Units,
			MeanA: finite(b.MeanA), MeanB: finite(b.MeanB),
			Delta: finite(b.Delta), Contribution: finite(b.Contribution),
		})
	}
	for _, cf := range res.Contexts {
		dc := DiagnoseContext{
			Metric: cf.Metric, Units: cf.Units,
			A: finite(cf.A), B: finite(cf.B),
			Delta: finite(cf.Delta), Contribution: finite(cf.Contribution),
		}
		for _, r := range cf.Context {
			dc.Context = append(dc.Context, string(r))
		}
		resp.Contexts = append(resp.Contexts, dc)
	}
	return resp
}

// handleDiagnose is POST /v1/diagnose: parse the strict request, run the
// diagnosis under the request context (so the per-request timeout and
// cancellation propagate into the store scans), and reply with the
// NaN-free wire form.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeErrorString(w, r, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sp, err := diagnose.ParseRequest(body)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	res, err := diagnose.Run(r.Context(), s.store, sp)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	s.log.Info("diagnose", "side_a", len(res.SideA), "side_b", len(res.SideB),
		"candidates", res.Candidates, "explanations", len(res.Explanations),
		"rid", RequestIDFromContext(r.Context()))
	writeJSON(w, http.StatusOK, newDiagnoseResponse(res))
}

// handleAttributes is GET /v1/attributes?prefix=&limit=&cursor=: the
// attribute-key domain listing backing the diagnose predicate space,
// paginated in name order when limit is set.
func (s *Server) handleAttributes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for key := range q {
		switch key {
		case "prefix", "limit", "cursor":
		default:
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("unknown query parameter %q", key))
			return
		}
	}
	prefix := q.Get("prefix")
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeErrorString(w, r, http.StatusBadRequest, fmt.Sprintf("bad limit %q, want a positive integer", raw))
			return
		}
		limit = v
	}
	after := ""
	if cursor := q.Get("cursor"); cursor != "" {
		parts, err := decodeCursor(cursor, "a1", 3)
		if err != nil {
			writeErrorString(w, r, http.StatusBadRequest, err.Error())
			return
		}
		if parts[1] != cursorSig(prefix) {
			writeErrorString(w, r, http.StatusBadRequest, "cursor does not match this prefix")
			return
		}
		after = parts[2]
	}
	keys, err := s.store.AttributeKeys(prefix)
	if err != nil {
		writeError(w, r, statusOf(err, http.StatusInternalServerError), err)
		return
	}
	// AttributeKeys returns name-sorted keys, so "after this name" is a
	// stable resume point even across ingests between pages.
	if after != "" {
		i := sort.Search(len(keys), func(i int) bool { return keys[i].Name > after })
		keys = keys[i:]
	}
	next := ""
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
		next = encodeCursor("a1", cursorSig(prefix), keys[len(keys)-1].Name)
	}
	resp := AttributesResponse{
		APIVersion: APIVersion, Prefix: prefix,
		Keys: make([]AttributeKey, 0, len(keys)), NextCursor: next,
	}
	for _, k := range keys {
		ak := AttributeKey{
			Name: k.Name, Resources: k.Resources, Distinct: k.Distinct,
			Numeric: k.Numeric, Values: k.Values,
		}
		if k.Numeric {
			ak.Min, ak.Max = jsonFloat(k.Min), jsonFloat(k.Max)
		}
		resp.Keys = append(resp.Keys, ak)
	}
	writeJSON(w, http.StatusOK, resp)
}
