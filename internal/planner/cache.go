package planner

import (
	"unsafe"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// ResultCache caches finished SELECT results by query text under the
// store generation: the planner's instance of datastore.Cache, whose
// policy (admit a key on its second fill, flush on a newer generation,
// discard stale fills, byte-bounded LRU) is documented there. Hits
// return the cached *sqldb.Result pointer — results are immutable once
// built — with a copy of the plan marked CacheHit.
type ResultCache = datastore.Cache[cachedResult]

// ResultCacheStats is the counter snapshot behind /v1/stats' plan_cache
// section and the ptserved_plan_cache_* metrics.
type ResultCacheStats = datastore.CacheStats

type cachedResult struct {
	res  *sqldb.Result
	plan Plan
}

// NewResultCache builds a cache bounded to maxBytes of (approximate)
// result payload; maxBytes <= 0 uses datastore.DefaultCacheBytes.
func NewResultCache(maxBytes int64) *ResultCache {
	return datastore.NewCache[cachedResult](maxBytes)
}

// resultBytes approximates a result's resident size: column headers plus
// per-value payloads.
func resultBytes(res *sqldb.Result) int64 {
	var n int64
	for _, c := range res.Columns {
		n += int64(len(c)) + 16
	}
	for _, row := range res.Rows {
		n += 24 // slice header
		for _, v := range row {
			n += 24 // value struct
			if v.Kind() == reldb.KindString {
				n += int64(len(v.Text()))
			}
		}
	}
	return n
}

// planBytes approximates what an entry's plan copy holds: the Plan
// itself, its strings, and the execution profile with its worker rows.
func planBytes(p *Plan) int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.Table)+len(p.Strategy))
	for _, s := range p.Pushed {
		n += 16 + int64(len(s))
	}
	if ep := p.Profile; ep != nil {
		n += int64(unsafe.Sizeof(*ep)) + 8*int64(cap(ep.WorkerRows))
	}
	return n
}
