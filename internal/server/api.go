package server

import (
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

// Wire types for the v1 HTTP/JSON API. internal/client reuses these, so
// the request and response shapes are defined exactly once.
//
// Versioning: every v1 response carries `"api_version": "v1"`. Within v1
// the wire contract is append-only — fields are added, never renamed,
// retyped, or removed, and existing endpoints keep their semantics.
// Request decoding is strict: unknown fields are rejected with 400 so a
// client built against a newer minor revision fails loudly instead of
// being silently misread. See DESIGN.md §7 for the full guarantees.

// APIVersion is stamped on every v1 response body.
const APIVersion = "v1"

// Selection is the unified execution/set/family selection spec shared by
// /v1/query, /v1/results, /v1/compare, and /v1/diagnose: zero or more
// pr-filter family specs (intersected), optionally restricted to named
// executions. It is defined in internal/query so the CLIs and the
// diagnose request reuse the exact wire shape; see that package for
// field semantics.
type Selection = query.Selection

// PlanWire is the uniform explain payload: /v1/query and /v1/sql attach
// exactly this shape when a request sets explain, and ptquery/ptsql
// render it through planner.Format.
type PlanWire = planner.PlanWire

// QueryRequest asks for pr-filter match counts (the Figure 3 live
// counts). Select is the unified selection; the top-level Families field
// is the original spelling and keeps decoding, merged with
// Select.Families. Each family is a resource-filter spec in the shared
// CLI syntax, e.g. "type=application" or "name=/MCRGrid/MCR;rel=D".
// Explain attaches the evaluated access-path plan to the response.
type QueryRequest struct {
	Families []string   `json:"families,omitempty"`
	Select   *Selection `json:"select,omitempty"`
	Explain  bool       `json:"explain,omitempty"`
}

// FamilyCount reports one family's size and how many performance results
// it matches alone; the resolver that fills it defines it.
type FamilyCount = query.FamilyCount

// QueryResponse carries per-family and combined match counts plus the
// query engine's cache state at evaluation time.
type QueryResponse struct {
	APIVersion  string        `json:"api_version"`
	Families    []FamilyCount `json:"families"`
	Matches     int           `json:"matches"`
	Generation  uint64        `json:"generation"`
	CacheHits   uint64        `json:"cache_hits"`
	CacheMisses uint64        `json:"cache_misses"`
	Plan        *PlanWire     `json:"plan,omitempty"` // set when Explain
}

// ResultsRequest is the two-step retrieval (§3.2): evaluate a pr-filter,
// then refine the table — metric filter, free-resource columns, attribute
// columns, sort, and row limit. Select is the unified selection; the
// top-level Families field is the original spelling and keeps decoding,
// merged with Select.Families. With Limit > 0 the response is one page
// and carries NextCursor when rows remain; Cursor resumes from a prior
// page (the request refinements must match the cursor's, else 400). See
// DESIGN.md §7.
type ResultsRequest struct {
	Families      []string   `json:"families,omitempty"`
	Select        *Selection `json:"select,omitempty"`
	Metric        string     `json:"metric,omitempty"`
	AddColumns    []string   `json:"add_columns,omitempty"`    // resource types
	AddAttributes []string   `json:"add_attributes,omitempty"` // type.attribute
	SortBy        string     `json:"sort_by,omitempty"`
	Descending    bool       `json:"descending,omitempty"`
	Limit         int        `json:"limit,omitempty"`  // 0 = all rows
	Cursor        string     `json:"cursor,omitempty"` // opaque, from NextCursor
}

// ResultsResponse is the retrieved table in wire form. NextCursor is set
// when a Limit-bounded page left rows behind; passing it back in Cursor
// returns the next page.
type ResultsResponse struct {
	APIVersion string     `json:"api_version"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Total      int        `json:"total"` // rows matched before the limit
	NextCursor string     `json:"next_cursor,omitempty"`
}

// ResultStreamLine is one line of the NDJSON response to
// POST /v1/results?stream=1. The first line carries Columns plus Total
// (IDs matched by the pr-filter, before any metric filter); each
// following line carries one Row; the final line has Done=true with the
// emitted row count. A mid-stream failure emits a line with Error and
// ends the stream.
type ResultStreamLine struct {
	APIVersion string     `json:"api_version"`
	Columns    []string   `json:"columns,omitempty"`
	Total      int        `json:"total,omitempty"`
	Row        *ResultRow `json:"row,omitempty"`
	Error      string     `json:"error,omitempty"`

	// Summary-line fields (Done == true).
	Done bool `json:"done,omitempty"`
	Rows int  `json:"rows,omitempty"`
}

// ResultRow is one streamed performance result.
type ResultRow struct {
	Execution string   `json:"execution"`
	Metric    string   `json:"metric"`
	Value     float64  `json:"value"`
	Units     string   `json:"units"`
	Tool      string   `json:"tool"`
	Resources []string `json:"resources,omitempty"`
}

// SQLRequest is the body of POST /v1/sql: one SELECT against the
// planner's virtual catalog (execution, resource, attribute,
// performance_result), falling back to the physical schema for anything
// the catalog cannot express. Explain attaches the chosen plan; Limit
// caps returned rows (0 = all).
type SQLRequest struct {
	SQL     string `json:"sql"`
	Explain bool   `json:"explain,omitempty"`
	Limit   int    `json:"limit,omitempty"`

	// Analyze attaches the chosen plan with its execution profile (the
	// EXPLAIN ANALYZE form): per-operator row counts, segment blocks
	// scanned vs. zone-map-pruned, kernel vs. merge wall time, and the
	// planner's cardinality error. Implies Explain.
	Analyze bool `json:"analyze,omitempty"`
}

// SQLResponse is the buffered reply to POST /v1/sql. Cells are JSON
// scalars: strings, numbers, booleans, or null (SQL NULL and non-finite
// floats). Truncated is set when Limit dropped rows.
type SQLResponse struct {
	APIVersion string    `json:"api_version"`
	Columns    []string  `json:"columns"`
	Rows       [][]any   `json:"rows"`
	RowCount   int       `json:"row_count"` // rows produced before Limit
	Truncated  bool      `json:"truncated,omitempty"`
	Plan       *PlanWire `json:"plan,omitempty"` // set when Explain
}

// SQLStreamLine is one line of the NDJSON response to
// POST /v1/sql?stream=1, for results too large to buffer. The first line
// carries Columns; each following line one Row; the final line has
// Done=true with the emitted row count (and the plan, when Explain). A
// mid-stream failure emits a line with Error and ends the stream.
type SQLStreamLine struct {
	APIVersion string   `json:"api_version"`
	Columns    []string `json:"columns,omitempty"`
	Row        []any    `json:"row,omitempty"`
	Error      string   `json:"error,omitempty"`

	// Summary-line fields (Done == true).
	Done bool      `json:"done,omitempty"`
	Rows int       `json:"rows,omitempty"`
	Plan *PlanWire `json:"plan,omitempty"`
}

// LoadResponse reports one single-document PTdf ingest.
type LoadResponse struct {
	APIVersion string              `json:"api_version"`
	Stats      datastore.LoadStats `json:"stats"`
	Generation uint64              `json:"generation"`
}

// LoadDocStatus is one line of the NDJSON response to a multi-document
// (multipart) POST /v1/load. Per-document lines carry Doc plus either
// Stats+Generation (committed) or Error (that document rolled back); the
// final line has Done=true and totals for the whole stream.
type LoadDocStatus struct {
	APIVersion string              `json:"api_version"`
	Doc        string              `json:"doc,omitempty"`
	Stats      datastore.LoadStats `json:"stats"`
	Error      string              `json:"error,omitempty"`
	Generation uint64              `json:"generation,omitempty"`

	// Summary-line fields (Done == true).
	Done   bool `json:"done,omitempty"`
	Docs   int  `json:"docs,omitempty"`
	Failed int  `json:"failed,omitempty"`
}

// ReportResponse carries a name-list report (executions, metrics,
// applications, tools).
type ReportResponse struct {
	APIVersion string   `json:"api_version"`
	Report     string   `json:"report"`
	Items      []string `json:"items"`
}

// StatsResponse is the Table 1 style store summary plus query-engine
// counters, storage-engine footprint, and the planner's table/attribute
// statistics snapshot (GET /v1/stats).
type StatsResponse struct {
	APIVersion string                     `json:"api_version"`
	Store      datastore.Stats            `json:"store"`
	Engine     datastore.QueryEngineStats `json:"engine"`
	Storage    StorageStats               `json:"storage"`
	Statistics datastore.TableStatistics  `json:"statistics"`

	// PlanCache reports the /v1/sql result cache (generation-keyed LRU).
	PlanCache *planner.ResultCacheStats `json:"plan_cache,omitempty"`
}

// StorageStats describes the storage engine behind the store: its kind,
// per-table byte footprint, and compaction status.
type StorageStats struct {
	Kind     string              `json:"kind"`
	Engine   reldb.Stats         `json:"engine"`
	Segments *reldb.SegmentStats `json:"segments,omitempty"`
}

// ComparePair is one aligned pair of performance results from the two
// executions of a /v1/compare. Ratio and Speedup are 0 when undefined
// (division by zero); Context holds the portable context resource names.
type ComparePair struct {
	Metric     string   `json:"metric"`
	Context    []string `json:"context,omitempty"`
	A          float64  `json:"a"`
	B          float64  `json:"b"`
	Units      string   `json:"units,omitempty"`
	Difference float64  `json:"difference"`
	Ratio      float64  `json:"ratio"`
	Speedup    float64  `json:"speedup"`
}

// CompareDelta is one regression or improvement: a pair plus how far B
// moved from A, in percent.
type CompareDelta struct {
	Pair    ComparePair `json:"pair"`
	Percent float64     `json:"percent"`
}

// CompareFinding is one diagnosed bottleneck (§6): a pair ranked by its
// contribution to the total slowdown.
type CompareFinding struct {
	Pair         ComparePair `json:"pair"`
	Delta        float64     `json:"delta"`
	Contribution float64     `json:"contribution"`
}

// CompareSummary aggregates a comparison. GeoMeanRatio is 0 when no pair
// has two positive values.
type CompareSummary struct {
	Paired       int     `json:"paired"`
	OnlyA        int     `json:"only_a"`
	OnlyB        int     `json:"only_b"`
	GeoMeanRatio float64 `json:"geo_mean_ratio"`
	MeanDiff     float64 `json:"mean_diff"`
}

// CompareResponse is the §6 comparison of two executions
// (GET /v1/compare?a=&b=).
type CompareResponse struct {
	APIVersion   string           `json:"api_version"`
	ExecA        string           `json:"exec_a"`
	ExecB        string           `json:"exec_b"`
	Summary      CompareSummary   `json:"summary"`
	Pairs        []ComparePair    `json:"pairs"`
	Regressions  []CompareDelta   `json:"regressions"`
	Improvements []CompareDelta   `json:"improvements"`
	Bottlenecks  []CompareFinding `json:"bottlenecks,omitempty"`
}

// HealthResponse is the liveness reply (/healthz sits outside the v1
// surface but is stamped for uniformity).
type HealthResponse struct {
	APIVersion string `json:"api_version"`
	Status     string `json:"status"`
	ReadOnly   bool   `json:"read_only"`
	Generation uint64 `json:"generation"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	APIVersion string `json:"api_version"`
	Error      string `json:"error"`
	RequestID  string `json:"request_id,omitempty"`
}

// QueryProfileWire is one captured /v1/sql execution
// (GET /v1/debug/queries): the query text, the request it ran under,
// and — when the execution carried one — its full EXPLAIN ANALYZE
// profile.
type QueryProfileWire struct {
	SQL        string                   `json:"sql"`
	RequestID  string                   `json:"request_id,omitempty"`
	Start      string                   `json:"start"` // RFC 3339 with sub-second precision
	DurationMS float64                  `json:"duration_ms"`
	Strategy   string                   `json:"strategy,omitempty"`
	CacheHit   bool                     `json:"cache_hit,omitempty"`
	Rows       int                      `json:"rows"`
	Error      string                   `json:"error,omitempty"`
	Slow       bool                     `json:"slow,omitempty"`
	Profile    *planner.ExecProfileWire `json:"profile,omitempty"`
}

// QueriesResponse lists recently captured (or, with ?slow=1, slow)
// queries, newest first.
type QueriesResponse struct {
	APIVersion string             `json:"api_version"`
	Slow       bool               `json:"slow,omitempty"`
	Queries    []QueryProfileWire `json:"queries"`
}

// SelfDiagnoseResponse is the reply to GET /v1/debug/selfdiagnose: the
// self-monitor's rolling window split into a baseline and a recent
// slice, diagnosed against each other by the same engine as
// POST /v1/diagnose. Diagnosis is absent (with Status explaining why)
// until the sampler has at least two samples.
type SelfDiagnoseResponse struct {
	APIVersion string            `json:"api_version"`
	Status     string            `json:"status"` // "ok" or why Diagnosis is absent
	Samples    int               `json:"samples"`
	Baseline   int               `json:"baseline,omitempty"` // executions on side A
	Recent     int               `json:"recent,omitempty"`   // executions on side B
	Diagnosis  *DiagnoseResponse `json:"diagnosis,omitempty"`
}

// TraceSummary is one completed request trace in list form
// (GET /v1/debug/traces). ID is the request ID the trace was keyed by.
type TraceSummary struct {
	ID         string  `json:"id"`
	Route      string  `json:"route"`
	Start      string  `json:"start"` // RFC 3339 with sub-second precision
	DurationMS float64 `json:"duration_ms"`
	Slow       bool    `json:"slow,omitempty"`
	Spans      int     `json:"spans"`
}

// TracesResponse lists recent (or, with ?slow=1, slow) traces, newest
// first.
type TracesResponse struct {
	APIVersion string         `json:"api_version"`
	Slow       bool           `json:"slow,omitempty"`
	Traces     []TraceSummary `json:"traces"`
}

// SpanWire is one span of a trace's span tree. Parent is the index of
// the parent span within the same trace, -1 for the root. OffsetMS is
// the span's start relative to the trace start.
type SpanWire struct {
	Index       int               `json:"index"`
	Parent      int               `json:"parent"`
	Name        string            `json:"name"`
	OffsetMS    float64           `json:"offset_ms"`
	DurationMS  float64           `json:"duration_ms"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// TraceResponse is one full trace (GET /v1/debug/traces/{id}): the
// summary plus every span recorded under the request, in start order.
type TraceResponse struct {
	APIVersion string       `json:"api_version"`
	Trace      TraceSummary `json:"trace"`
	Spans      []SpanWire   `json:"spans"`
}
