package planner

import (
	"context"
	"fmt"
	"testing"
	"unsafe"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// TestResultCacheHitAndInvalidation pins the cache contract: a query
// asked a third time returns byte-identical rows from cache (the second
// fill stored them), and every store generation bump invalidates all
// entries.
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
	if _, plan, err := p.Query(context.Background(), q); err != nil || plan.CacheHit {
		t.Fatalf("second execution: %v, cache hit %v; want an execution that fills the cache", err, plan != nil && plan.CacheHit)
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
	if s := p.Cache.Stats(); s.Hits != 1 || s.Misses != 2 || s.Declined != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 declined / 1 entry", s)
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
// Each query is asked twice, since a first fill is not stored.
func TestResultCacheEviction(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 400)
	p := New(st)
	p.Cache = NewResultCache(16 << 10)
	for i := 0; i < 16; i++ {
		q := fmt.Sprintf("SELECT id, metric, value FROM performance_result WHERE id <= %d ORDER BY id", 40+i)
		for range 2 {
			if _, _, err := p.Query(context.Background(), q); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
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
	for range 2 {
		if _, _, err := p.Query(context.Background(), q); err != nil {
			t.Fatalf("oversized query: %v", err)
		}
	}
	if s := tiny.Stats(); s.Entries != 0 {
		t.Fatalf("oversized result cached: %+v", s)
	}
}

// TestResultCacheChargesKeyAndPlan pins what a plan-cache entry is
// charged: the result rows, the plan copy with its execution profile and
// worker rows, and the SQL text that keys it, plus the overhead every
// entry carries.
func TestResultCacheChargesKeyAndPlan(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 200)
	p := New(st)
	p.Cache = NewResultCache(0)
	q := "SELECT metric, count(*) FROM performance_result GROUP BY metric ORDER BY metric"
	var res *sqldb.Result
	var plan *Plan
	for range 2 {
		var err error
		if res, plan, err = p.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	empty := NewResultCache(0) // an empty key and payload: the overhead alone
	for range 2 {
		empty.Put(0, "", cachedResult{}, 0)
	}
	overhead := empty.Stats().Bytes

	ep := plan.Profile
	if ep == nil {
		t.Fatal("the filling execution carried no profile")
	}
	bare := *plan
	bare.Profile = nil
	if got, want := planBytes(plan)-planBytes(&bare), int64(unsafe.Sizeof(*ep))+8*int64(cap(ep.WorkerRows)); got != want {
		t.Errorf("the profile is charged %d bytes, want %d", got, want)
	}
	want := resultBytes(res) + planBytes(plan) + int64(len(q)) + overhead
	if s := p.Cache.Stats(); s.Entries != 1 || s.Bytes != want {
		t.Errorf("stats = %+v, want 1 entry of %d bytes (result %d, plan %d, key %d, overhead %d)",
			s, want, resultBytes(res), planBytes(plan), len(q), overhead)
	}
}
