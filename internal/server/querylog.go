package server

import (
	"sync"
	"time"

	"perftrack/internal/planner"
)

// queryRecord is one completed /v1/sql execution retained for
// GET /v1/debug/queries: the query text, the request it ran under, how
// long it took, and the full EXPLAIN ANALYZE profile — so a latency
// exemplar on /metrics can be chased to the exact query and its
// per-operator actuals without re-running anything.
type queryRecord struct {
	SQL       string
	RequestID string
	Start     time.Time
	Duration  time.Duration
	Strategy  string
	CacheHit  bool
	Rows      int
	Error     string
	Slow      bool
	Profile   *planner.ExecProfileWire
}

// queryRecordOverhead approximates the fixed cost of one record (struct,
// profile, ring bookkeeping) on top of its string payload.
const queryRecordOverhead = 512

// maxQueryTextBytes caps the SQL and error text retained per record: a
// few KB is plenty to identify a statement, and the cap keeps a single
// pathological query from pinning a ring above its byte budget.
const maxQueryTextBytes = 4 << 10

// truncateText bounds s to max bytes, marking the cut.
func truncateText(s string, max int) string {
	const marker = "...[truncated]"
	if len(s) <= max {
		return s
	}
	return s[:max-len(marker)] + marker
}

func (qr *queryRecord) byteSize() int64 {
	return int64(len(qr.SQL)+len(qr.RequestID)+len(qr.Strategy)+len(qr.Error)) + queryRecordOverhead
}

// queryRing is one byte-bounded FIFO of query records: appends evict
// from the front until the ring fits its budget again.
type queryRing struct {
	recs     []queryRecord
	bytes    int64
	maxBytes int64
}

func (r *queryRing) add(rec queryRecord) {
	if rec.byteSize() > r.maxBytes {
		return // one record over the whole budget: drop it, keep the bound
	}
	r.recs = append(r.recs, rec)
	r.bytes += rec.byteSize()
	evict := 0
	for r.bytes > r.maxBytes && evict < len(r.recs)-1 {
		r.bytes -= r.recs[evict].byteSize()
		evict++
	}
	if evict > 0 {
		r.recs = append(r.recs[:0], r.recs[evict:]...)
	}
}

// list returns up to limit records, newest first.
func (r *queryRing) list(limit int) []queryRecord {
	n := min(limit, len(r.recs))
	out := make([]queryRecord, 0, n)
	for i := len(r.recs) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, r.recs[i])
	}
	return out
}

// queryLog is the slow-query capture behind GET /v1/debug/queries: two
// byte-bounded rings (every completed query, and separately those at or
// over the slow threshold, mirroring the tracer's recent/slow split so
// a burst of fast queries cannot evict the interesting slow ones).
type queryLog struct {
	mu     sync.Mutex
	recent queryRing
	slow   queryRing

	slowThreshold time.Duration // <= 0 disables slow classification

	total     uint64 // lifetime records
	slowTotal uint64
}

func newQueryLog(maxBytes int64, slowThreshold time.Duration) *queryLog {
	return &queryLog{
		recent:        queryRing{maxBytes: maxBytes},
		slow:          queryRing{maxBytes: maxBytes},
		slowThreshold: slowThreshold,
	}
}

// add records one completed query, classifying it against the slow
// threshold.
func (ql *queryLog) add(rec queryRecord) {
	rec.Slow = ql.slowThreshold > 0 && rec.Duration >= ql.slowThreshold
	rec.SQL = truncateText(rec.SQL, maxQueryTextBytes)
	rec.Error = truncateText(rec.Error, maxQueryTextBytes)
	ql.mu.Lock()
	defer ql.mu.Unlock()
	ql.total++
	ql.recent.add(rec)
	if rec.Slow {
		ql.slowTotal++
		ql.slow.add(rec)
	}
}

// list returns up to limit records from the recent (or slow) ring,
// newest first.
func (ql *queryLog) list(slow bool, limit int) []queryRecord {
	ql.mu.Lock()
	defer ql.mu.Unlock()
	if slow {
		return ql.slow.list(limit)
	}
	return ql.recent.list(limit)
}

// queryLogStats is a snapshot for the ptserved_query_profile_* metrics.
type queryLogStats struct {
	Total       uint64
	SlowTotal   uint64
	Entries     int
	SlowEntries int
	Bytes       int64
}

func (ql *queryLog) stats() queryLogStats {
	ql.mu.Lock()
	defer ql.mu.Unlock()
	return queryLogStats{
		Total:       ql.total,
		SlowTotal:   ql.slowTotal,
		Entries:     len(ql.recent.recs),
		SlowEntries: len(ql.slow.recs),
		Bytes:       ql.recent.bytes + ql.slow.bytes,
	}
}
