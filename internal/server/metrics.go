package server

import (
	"strconv"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/obs"
	"perftrack/internal/planner"
)

// serverMetrics is the process-local instrumentation behind GET /metrics,
// built on the obs registry: per-route request counters by status code,
// per-route latency histograms, an in-flight gauge, and a shed-request
// counter. Store counters (batch commits, WAL flushes, cache hit/miss),
// tracer counters, and Go runtime gauges are registered as scrape-time
// callbacks, so /metrics always reflects the live values without the
// store knowing about the registry.
type serverMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inFlight *obs.Gauge
	shed     *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("ptserved_requests_total",
			"Requests served, by route and status code.", "route", "code"),
		latency: reg.HistogramVec("ptserved_request_duration_seconds",
			"Request latency in seconds, by route.", obs.DefBuckets, "route"),
		inFlight: reg.Gauge("ptserved_in_flight_requests",
			"API requests currently being served."),
		shed: reg.Counter("ptserved_requests_shed_total",
			"Requests shed with 429 at the in-flight ceiling."),
	}
	obs.RegisterRuntimeMetrics(reg)
	return m
}

// observe records one finished request. The latency observation carries
// the request ID as an OpenMetrics exemplar, so a populated bucket on
// /metrics links straight to a trace in /v1/debug/traces/{id}.
func (m *serverMetrics) observe(route string, code int, d time.Duration, requestID string) {
	m.requests.With(route, strconv.Itoa(code)).Inc()
	m.latency.With(route).ObserveExemplar(d.Seconds(), requestID)
}

// registerStore bridges the store's query-engine and telemetry counters
// into the registry. The ptserved_query_cache_* and
// ptserved_store_generation names predate the registry and are kept
// verbatim (gauges, no _total suffix) for scrape compatibility.
func (m *serverMetrics) registerStore(store *datastore.Store) {
	m.reg.GaugeFunc("ptserved_store_generation",
		"Store generation; advances on every mutation.",
		func() float64 { return float64(store.Generation()) })
	m.reg.GaugeFunc("ptserved_query_cache_hits",
		"pr-filter match-cache hits.",
		func() float64 { return float64(store.QueryEngineStats().CacheHits) })
	m.reg.GaugeFunc("ptserved_query_cache_misses",
		"pr-filter match-cache misses.",
		func() float64 { return float64(store.QueryEngineStats().CacheMisses) })
	m.reg.GaugeFunc("ptserved_query_cache_entries",
		"pr-filter match-cache resident entries.",
		func() float64 { return float64(store.QueryEngineStats().CacheEntries) })
	m.reg.GaugeFunc("ptserved_query_cache_bytes",
		"pr-filter match-cache resident bytes: each ID set's allocation plus its key and per-entry overhead.",
		func() float64 { return float64(store.QueryEngineStats().CacheBytes) })
	m.reg.GaugeFunc("ptserved_query_cache_declined",
		"pr-filter match-cache first fills recorded but not stored: a key is admitted on its second fill.",
		func() float64 { return float64(store.QueryEngineStats().CacheDeclined) })

	m.reg.CounterFunc("ptserved_store_batch_commits_total",
		"Committed write batches.",
		func() uint64 { return store.Telemetry().BatchCommits })
	m.reg.CounterFunc("ptserved_store_batch_rollbacks_total",
		"Write batches rolled back by a bad record.",
		func() uint64 { return store.Telemetry().BatchRollbacks })
	m.reg.CounterFunc("ptserved_store_wal_flushes_total",
		"WAL group flushes.",
		func() uint64 { return store.Telemetry().WALFlushes })
	m.reg.CounterFunc("ptserved_store_records_loaded_total",
		"PTdf records applied by committed batches.",
		func() uint64 { return store.Telemetry().RecordsLoaded })
	m.reg.CounterFunc("ptserved_store_focus_cache_hits_total",
		"Materializer focus links served from the per-query cache.",
		func() uint64 { return store.Telemetry().FocusCacheHits })
	m.reg.CounterFunc("ptserved_store_focus_cache_misses_total",
		"Materializer foci decoded from the engine.",
		func() uint64 { return store.Telemetry().FocusCacheMisses })
	m.reg.CounterFunc("ptserved_store_materializations_total",
		"Materializer chunks run.",
		func() uint64 { return store.Telemetry().Materializations })
	m.reg.CounterFunc("ptserved_store_results_read_total",
		"Performance results materialized.",
		func() uint64 { return store.Telemetry().ResultsRead })

	m.reg.CounterFunc("ptserved_store_segment_scans_total",
		"Columnar segment range scans run by the materializer.",
		func() uint64 { return store.Telemetry().SegmentScans })
	m.reg.CounterFunc("ptserved_store_segment_rows_scanned_total",
		"Rows visited by columnar segment scans.",
		func() uint64 { return store.Telemetry().SegmentRowsScanned })
	m.reg.CounterFunc("ptserved_store_zone_map_prunes_total",
		"Segments skipped by zone-map bounds during range scans.",
		func() uint64 { return store.Telemetry().ZoneMapPrunes })
	m.reg.RegisterHistogram("ptserved_store_segment_scan_bytes",
		"Columnar bytes touched per segment range scan.",
		store.SegmentScanBytes())

	// Compactor counters live on the storage engine rather than the
	// store.
	eng := store.Engine()
	m.reg.CounterFunc("ptserved_store_segments_compacted_total",
		"Background compaction passes that wrote segments.",
		func() uint64 { return eng.SegmentStats().Compactions })
	m.reg.CounterFunc("ptserved_store_segments_written_total",
		"Immutable columnar segment files written.",
		func() uint64 { return eng.SegmentStats().SegmentsWritten })
	m.reg.GaugeFunc("ptserved_store_compactor_lag_rows",
		"Rows not yet in a segment (sealed and active tails).",
		func() float64 {
			var lag int64
			for _, t := range eng.SegmentStats().Tables {
				lag += t.PendingRows
			}
			return float64(lag)
		})
	m.reg.GaugeFunc("ptserved_store_row_resident_bytes",
		"Unflushed rows in row form, and the permutations built over them (flushed rows have left).",
		func() float64 {
			st := eng.Stats()
			return float64(st.DataBytes + st.IndexBytes)
		})
	m.reg.GaugeFunc("ptserved_store_segment_resident_bytes",
		"Bytes decoded segments take in memory: column vectors at their widths and built permutations.",
		func() float64 { return float64(eng.Stats().SegmentResidentBytes) })
	m.reg.CounterFunc("ptserved_store_stats_flush_errors_total",
		"Storage statistics reads whose log flush failed (wal_bytes then reports the last good value).",
		func() uint64 { return eng.Stats().FlushErrors })
	// wal_bytes is what is live, not what was ever written: each pass
	// starts a log file carrying the tails forward and deletes the older
	// ones. These two keep write amplification visible.
	m.reg.CounterFunc("ptserved_store_log_bytes_appended_total",
		"Bytes appended to the commit log, the tails each pass carries into a new log file included.",
		func() uint64 { return eng.SegmentStats().LogBytesAppended })
	m.reg.CounterFunc("ptserved_store_log_bytes_trimmed_total",
		"Log bytes deleted or truncated away once segments superseded them.",
		func() uint64 { return eng.SegmentStats().LogBytesTrimmed })
	m.reg.GaugeFunc("ptserved_store_log_bytes",
		"Bytes of the commit log's live files on disk (wal_bytes on /v1/stats).",
		func() float64 { return float64(eng.Stats().WALBytes) })
}

// registerPlanCache bridges the /v1/sql result cache counters into the
// registry at scrape time.
func (m *serverMetrics) registerPlanCache(c *planner.ResultCache) {
	m.reg.CounterFunc("ptserved_plan_cache_hits_total",
		"/v1/sql results served from the generation-keyed plan cache.",
		func() uint64 { return c.Stats().Hits })
	m.reg.CounterFunc("ptserved_plan_cache_misses_total",
		"/v1/sql queries executed because no cached result matched.",
		func() uint64 { return c.Stats().Misses })
	m.reg.CounterFunc("ptserved_plan_cache_evictions_total",
		"Plan-cache entries evicted to stay under the byte bound.",
		func() uint64 { return c.Stats().Evictions })
	m.reg.CounterFunc("ptserved_plan_cache_declined_total",
		"/v1/sql first fills recorded but not stored: a query is admitted on its second fill.",
		func() uint64 { return c.Stats().Declined })
	m.reg.GaugeFunc("ptserved_plan_cache_entries",
		"Plan-cache resident entries.",
		func() float64 { return float64(c.Stats().Entries) })
	m.reg.GaugeFunc("ptserved_plan_cache_bytes",
		"Approximate plan-cache resident bytes.",
		func() float64 { return float64(c.Stats().Bytes) })
}

// registerTracer exposes the tracer's lifetime counters.
func (m *serverMetrics) registerTracer(tr *obs.Tracer) {
	m.reg.CounterFunc("ptserved_traces_total",
		"Traces completed.",
		func() uint64 { _, c, _, _ := tr.Stats(); return c })
	m.reg.CounterFunc("ptserved_traces_slow_total",
		"Traces over the slow-request threshold.",
		func() uint64 { _, _, s, _ := tr.Stats(); return s })
	m.reg.CounterFunc("ptserved_spans_total",
		"Spans recorded across all traces.",
		func() uint64 { _, _, _, sp := tr.Stats(); return sp })
}
