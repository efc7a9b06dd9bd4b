package datastore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
)

// seedAttrStudy builds a store with processors carrying numeric and
// string attributes for the attribute-filter edge-case tests.
func seedAttrStudy(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	if _, err := s.AddResource("/irs", "application", ""); err != nil {
		t.Fatal(err)
	}
	for i, clock := range []string{"700", "1000", "2400"} {
		name := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i))
		if _, err := s.AddResource(name, "grid/machine/partition/node/processor", ""); err != nil {
			t.Fatal(err)
		}
		if err := s.SetResourceAttribute(name, "clock MHz", clock); err != nil {
			t.Fatal(err)
		}
	}
	// One processor with a vendor but no clock attribute.
	if _, err := s.AddResource("/GM/MCR/batch/n3/p0", "grid/machine/partition/node/processor", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResourceAttribute("/GM/MCR/batch/n3/p0", "vendor", "Intel"); err != nil {
		t.Fatal(err)
	}
	return s
}

func famNames(fam core.Family) []core.ResourceName { return fam.Members() }

func TestAttrFilterMissingAttribute(t *testing.T) {
	s := seedAttrStudy(t)
	// n3 has no "clock MHz" attribute: it must not match any clock
	// predicate, including != which would hold vacuously.
	fam, err := s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "clock MHz", Cmp: core.CmpNe, Value: "0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 3 || fam.Contains("/GM/MCR/batch/n3/p0") {
		t.Errorf("missing-attribute resource matched: %v", famNames(fam))
	}
	// A predicate on an attribute no resource has selects nothing.
	fam, err = s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "no such attr", Cmp: core.CmpEq, Value: "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 0 {
		t.Errorf("nonexistent attribute matched %v", famNames(fam))
	}
}

func TestAttrFilterNumericVsLexicographic(t *testing.T) {
	s := seedAttrStudy(t)
	// Numeric comparison: "700" < "1000" numerically even though
	// "700" > "1000" lexicographically.
	fam, err := s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "clock MHz", Cmp: core.CmpGt, Value: "900"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 2 || fam.Contains("/GM/MCR/batch/n0/p0") {
		t.Errorf("clock > 900 = %v, want the 1000 and 2400 processors", famNames(fam))
	}
	// Lexicographic comparison when an operand is not numeric.
	fam, err = s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "vendor", Cmp: core.CmpGe, Value: "Intel"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 1 || !fam.Contains("/GM/MCR/batch/n3/p0") {
		t.Errorf("vendor >= Intel = %v", famNames(fam))
	}
}

func TestAttrFilterCombinedWithTypeAndBaseName(t *testing.T) {
	s := seedAttrStudy(t)
	// Give the application the same attribute value to prove the type
	// filter still constrains the result.
	if err := s.SetResourceAttribute("/irs", "clock MHz", "2400"); err != nil {
		t.Fatal(err)
	}
	fam, err := s.ApplyFilter(core.ResourceFilter{
		Type:  "grid/machine/partition/node/processor",
		Attrs: []core.AttrPredicate{{Attr: "clock MHz", Cmp: core.CmpEq, Value: "2400"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 1 || !fam.Contains("/GM/MCR/batch/n2/p0") {
		t.Errorf("type+attr = %v", famNames(fam))
	}
	fam, err = s.ApplyFilter(core.ResourceFilter{
		BaseName: "p0",
		Attrs:    []core.AttrPredicate{{Attr: "clock MHz", Cmp: core.CmpLe, Value: "1000"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 2 || fam.Contains("/GM/MCR/batch/n2/p0") {
		t.Errorf("base+attr = %v", famNames(fam))
	}
	// Conjunction of two attribute predicates.
	fam, err = s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{
			{Attr: "clock MHz", Cmp: core.CmpGt, Value: "500"},
			{Attr: "clock MHz", Cmp: core.CmpLt, Value: "1500"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 2 || fam.Contains("/GM/MCR/batch/n2/p0") {
		t.Errorf("two predicates = %v", famNames(fam))
	}
}

func TestAttrFilterLastWriteWins(t *testing.T) {
	s := seedAttrStudy(t)
	// Re-setting an attribute changes its effective value; the index path
	// must match the materialized-resource view (last write wins).
	if err := s.SetResourceAttribute("/GM/MCR/batch/n0/p0", "clock MHz", "3000"); err != nil {
		t.Fatal(err)
	}
	fam, err := s.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "clock MHz", Cmp: core.CmpGt, Value: "2500"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 1 || !fam.Contains("/GM/MCR/batch/n0/p0") {
		t.Errorf("after overwrite = %v", famNames(fam))
	}
	res, err := s.ResourceByName("/GM/MCR/batch/n0/p0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["clock MHz"] != "3000" {
		t.Errorf("materialized value = %q, want 3000", res.Attributes["clock MHz"])
	}
}

func TestMatchCacheHitsAndGenerationBump(t *testing.T) {
	s := seedStudy(t)
	frost, err := s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil {
		t.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{frost}}
	n1, err := s.CountMatches(prf)
	if err != nil {
		t.Fatal(err)
	}
	before := s.QueryEngineStats()
	n2, err := s.CountMatches(prf)
	if err != nil {
		t.Fatal(err)
	}
	after := s.QueryEngineStats()
	if n1 != n2 {
		t.Fatalf("repeated count changed: %d then %d", n1, n2)
	}
	if after.CacheHits <= before.CacheHits {
		t.Errorf("repeated CountMatches did not hit the cache: %+v -> %+v", before, after)
	}

	// Loading a new record bumps the generation and evicts stale counts.
	gen := s.Generation()
	if err := s.LoadRecord(ptdf.PerfResultRec{
		Exec: "irs-frost", Metric: "wall time", Value: 99, Units: "seconds", Tool: "test",
		Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/irs", "/GF/Frost"}}},
	}); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == gen {
		t.Fatal("LoadRecord did not bump the store generation")
	}
	n3, err := s.CountMatches(prf)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1+1 {
		t.Errorf("count after load = %d, want %d (stale cache served?)", n3, n1+1)
	}
}

func TestMatchingResultIDsCallerMayMutate(t *testing.T) {
	s := seedStudy(t)
	frost, err := s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil {
		t.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{frost}}
	ids, err := s.MatchingResultIDs(prf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		ids[i] = -1 // scribble over the returned slice
	}
	again, err := s.MatchingResultIDs(prf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range again {
		if id < 0 {
			t.Fatal("cached ID-set was corrupted by caller mutation")
		}
	}
}

func TestInvalidateQueryCache(t *testing.T) {
	s := seedStudy(t)
	frost, _ := s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if _, err := s.CountFamilyMatches(frost); err != nil {
		t.Fatal(err)
	}
	if s.QueryEngineStats().CacheEntries == 0 {
		t.Fatal("no cache entries after a count")
	}
	gen := s.Generation()
	s.InvalidateQueryCache()
	if s.Generation() == gen {
		t.Fatal("InvalidateQueryCache did not bump the generation")
	}
	// The next lookup at the new generation discards the old entries.
	if _, err := s.CountFamilyMatches(frost); err != nil {
		t.Fatal(err)
	}
	if got := s.QueryEngineStats().CacheEntries; got != 1 {
		t.Errorf("cache entries after invalidate+recount = %d, want 1", got)
	}
}

// TestParallelFamilyEvaluation exercises the worker-pool path with many
// families and concurrent callers; run under -race it proves the
// evaluator is race-clean.
func TestParallelFamilyEvaluation(t *testing.T) {
	s := seedStudy(t)
	var fams []core.Family
	for _, rf := range []core.ResourceFilter{
		{Name: "/GF/Frost", Include: core.IncludeDescendants},
		{Type: "application"},
		{BaseName: "batch", Include: core.IncludeDescendants},
		{Name: "/GM/MCR", Include: core.IncludeDescendants},
		{Type: "grid/machine/partition/node/processor"},
	} {
		fam, err := s.ApplyFilter(rf)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, fam)
	}
	want, err := s.CountMatches(core.PRFilter{Families: fams})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Mix cached and cold evaluations across goroutines.
				if i%5 == 0 && g == 0 {
					s.InvalidateQueryCache()
				}
				n, err := s.CountMatches(core.PRFilter{Families: fams})
				if err != nil {
					t.Error(err)
					return
				}
				if n != want {
					t.Errorf("concurrent count = %d, want %d", n, want)
					return
				}
				if _, err := s.CountFamilyMatches(fams[i%len(fams)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCountMatchesNoFamiliesCountsAll(t *testing.T) {
	s := seedStudy(t)
	n, err := s.CountMatches(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.MatchingResultIDs(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ids) || n != 4 {
		t.Errorf("all-results count = %d, ids = %d, want 4", n, len(ids))
	}
}

// TestCancelledCountStops pins that family evaluation under a cancelled
// context stops at its first check: the filter, the family count and the
// pr-filter count return the context's error, and nothing is cached.
func TestCancelledCountStops(t *testing.T) {
	s := seedStudy(t)
	rf := core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants}
	frost, err := s.ApplyFilter(rf)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ApplyFilterCtx(ctx, rf); !errors.Is(err, context.Canceled) {
		t.Errorf("ApplyFilterCtx: err = %v, want context.Canceled", err)
	}
	if _, err := s.CountFamilyMatchesCtx(ctx, frost); !errors.Is(err, context.Canceled) {
		t.Errorf("CountFamilyMatchesCtx: err = %v, want context.Canceled", err)
	}
	if _, err := s.CountMatchesCtx(ctx, core.PRFilter{Families: []core.Family{frost}}); !errors.Is(err, context.Canceled) {
		t.Errorf("CountMatchesCtx: err = %v, want context.Canceled", err)
	}
	if cs := s.QueryEngineStats(); cs.CacheEntries != 0 || cs.CacheBytes != 0 {
		t.Errorf("a cancelled evaluation cached %d entries (%d bytes)", cs.CacheEntries, cs.CacheBytes)
	}
}

// bytesPerCall is the heap f allocates per call: the least of a few
// batches, so a background allocation during one batch does not count.
func bytesPerCall(f func()) int64 {
	const batches, runs = 5, 10
	best := int64(-1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		if b := int64(after.TotalAlloc-before.TotalAlloc) / runs; best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestMatchPathsCopyNothing pins that neither the empty pr-filter's ID
// list nor a cached count allocates in proportion to the match count
// beyond the list it returns: no second copy of a fresh list, and a count
// reads the cached set's length.
func TestMatchPathsCopyNothing(t *testing.T) {
	ctx := context.Background()
	extra := func(n int) (list, count int64) {
		s := newStore(t)
		var b strings.Builder
		b.WriteString("Application app\nExecution exec app\nResource /app application\nResource /hot grid\n")
		for i := range n {
			fmt.Fprintf(&b, "PerfResult exec /app,/hot(primary) tool \"wall time\" %d.5 seconds\n", i)
		}
		if _, err := s.LoadPTdf(strings.NewReader(b.String())); err != nil {
			t.Fatal(err)
		}
		hot, err := s.ApplyFilter(core.ResourceFilter{Name: "/hot"})
		if err != nil {
			t.Fatal(err)
		}
		prf := core.PRFilter{Families: []core.Family{hot}}
		list = bytesPerCall(func() {
			if ids, err := s.MatchingResultIDsCtx(ctx, core.PRFilter{}); err != nil || len(ids) != n {
				t.Fatalf("every result: %d IDs, err %v; want %d", len(ids), err, n)
			}
		}) - 8*int64(n)
		count = bytesPerCall(func() {
			if got, err := s.CountMatchesCtx(ctx, prf); err != nil || got != n {
				t.Fatalf("cached count = %d, err %v; want %d", got, err, n)
			}
		})
		return list, count
	}
	const small, large = 500, 4000
	l1, c1 := extra(small)
	l2, c2 := extra(large)
	// A copy of the list would grow by 8 B per result between the sizes.
	if limit := int64(8 * (large - small) / 4); l2-l1 > limit || c2-c1 > limit {
		t.Errorf("bytes per call beyond the returned list: %d at %d results, %d at %d; "+
			"per cached count: %d, then %d (limit on growth %d)", l1, small, l2, large, c1, c2, limit)
	}
}
