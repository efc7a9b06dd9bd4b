package datastore

import "sync/atomic"

// telemetry holds the store's operation counters: plain atomics bumped
// on the write and materialize paths, cheap enough to stay enabled
// unconditionally. The service layer bridges them into its metrics
// registry at scrape time via Telemetry().
type telemetry struct {
	batchCommits     atomic.Uint64
	batchRollbacks   atomic.Uint64
	recordsLoaded    atomic.Uint64
	focusCacheHits   atomic.Uint64
	focusCacheMisses atomic.Uint64
	materializations atomic.Uint64
	resultsRead      atomic.Uint64

	segmentScans       atomic.Uint64
	segmentRowsScanned atomic.Uint64
	zoneMapPrunes      atomic.Uint64
}

// Telemetry is a point-in-time snapshot of the store's operation
// counters. Match-cache numbers come from the generation-stamped query
// cache; focus-cache numbers count materializer focus decodes served
// from the per-query cache versus decoded from the engine.
type Telemetry struct {
	BatchCommits     uint64 // committed batches (LoadPTdfCtx, bulk load, CommitCtx)
	BatchRollbacks   uint64 // batches rolled back by a bad record
	WALFlushes       uint64 // log group flushes: one per committed batch
	RecordsLoaded    uint64 // PTdf records applied by committed batches
	MatchCacheHits   uint64 // pr-filter query cache hits
	MatchCacheMisses uint64 // pr-filter query cache misses
	FocusCacheHits   uint64 // focus links served from a materializer's cache
	FocusCacheMisses uint64 // focus IDs decoded from the engine
	Materializations uint64 // materializer chunks run
	ResultsRead      uint64 // performance results materialized

	SegmentScans       uint64 // columnar segment range scans run
	SegmentRowsScanned uint64 // rows visited by segment scans
	ZoneMapPrunes      uint64 // segments skipped by zone-map bounds

	// StatsRefreshes is always 0: statistics are computed, not written at
	// commit. bench/e2e still reads the field; it goes when a [benchmark]
	// PR drops datastore.stats_refreshes_per_commit.
	StatsRefreshes uint64
}

// Telemetry snapshots the store's operation counters.
func (s *Store) Telemetry() Telemetry {
	cs := s.cache.Stats()
	return Telemetry{
		BatchCommits:     s.tel.batchCommits.Load(),
		BatchRollbacks:   s.tel.batchRollbacks.Load(),
		WALFlushes:       s.tel.batchCommits.Load(),
		RecordsLoaded:    s.tel.recordsLoaded.Load(),
		MatchCacheHits:   cs.Hits,
		MatchCacheMisses: cs.Misses,
		FocusCacheHits:   s.tel.focusCacheHits.Load(),
		FocusCacheMisses: s.tel.focusCacheMisses.Load(),
		Materializations: s.tel.materializations.Load(),
		ResultsRead:      s.tel.resultsRead.Load(),

		SegmentScans:       s.tel.segmentScans.Load(),
		SegmentRowsScanned: s.tel.segmentRowsScanned.Load(),
		ZoneMapPrunes:      s.tel.zoneMapPrunes.Load(),
	}
}
