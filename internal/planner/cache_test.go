package planner

import (
	"context"
	"fmt"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// TestResultCacheHitAndInvalidation pins the cache contract: a repeated
// query returns byte-identical rows from cache, and every store
// generation bump invalidates all entries.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 200)
	p := New(st)
	p.Cache = NewResultCache(0)
	q := "SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric"

	res1, plan1, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if plan1.CacheHit {
		t.Fatalf("first execution reported a cache hit")
	}
	res2, plan2, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if !plan2.CacheHit {
		t.Fatalf("repeat execution missed the cache (plan: %s)", plan2.Text())
	}
	if renderResult(res1) != renderResult(res2) {
		t.Fatalf("cache hit returned different bytes:\n%s\nvs\n%s", renderResult(res1), renderResult(res2))
	}
	if s := p.Cache.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}

	// Any mutation bumps the generation: the same text must re-execute
	// and observe the new rows.
	genBefore := st.Generation()
	b := st.NewBatch()
	b.Stage(ptdf.PerfResultRec{
		Exec: "exec-a",
		Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/app"}, Type: core.FocusPrimary}},
		Tool: "tool", Metric: "metric-0", Value: 1e6, Units: "seconds",
	})
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if st.Generation() == genBefore {
		t.Fatalf("commit did not bump the generation")
	}
	res3, plan3, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query 3: %v", err)
	}
	if plan3.CacheHit {
		t.Fatalf("post-mutation query served from cache (plan: %s)", plan3.Text())
	}
	if renderResult(res3) == renderResult(res1) {
		t.Fatalf("post-mutation result identical to pre-mutation result; invalidation failed")
	}
	// Naive mode must bypass the cache entirely.
	naive := New(st)
	naive.Naive = true
	naive.Cache = p.Cache
	nres, _, err := naive.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if renderResult(nres) != renderResult(res3) {
		t.Fatalf("cached result diverges from naive after invalidation")
	}
}

// TestResultCacheEviction pins the byte bound: a cache too small for the
// working set evicts from the LRU tail and never exceeds its budget.
func TestResultCacheEviction(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 400)
	p := New(st)
	p.Cache = NewResultCache(16 << 10)
	for i := 0; i < 16; i++ {
		q := fmt.Sprintf("SELECT id, metric, value FROM performance_result WHERE id <= %d ORDER BY id", 40+i)
		if _, _, err := p.Query(context.Background(), q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s := p.Cache.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a 16KiB bound: %+v", s)
	}
	if s.Bytes > s.MaxBytes {
		t.Fatalf("cache over budget: %+v", s)
	}
	// Oversized results are passed through uncached.
	tiny := NewResultCache(64)
	p.Cache = tiny
	q := "SELECT id, metric, value FROM performance_result ORDER BY id"
	if _, _, err := p.Query(context.Background(), q); err != nil {
		t.Fatalf("oversized query: %v", err)
	}
	if s := tiny.Stats(); s.Entries != 0 {
		t.Fatalf("oversized result cached: %+v", s)
	}
}
