package datastore

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
)

// TestCachePolicy drives the one cache policy as a script per case: each
// step is a Get or Put at a generation, and the case pins the resulting
// hits and the final counters.
func TestCachePolicy(t *testing.T) {
	const (
		max  = 4 * (100 + cacheEntryOverhead) // room for four 100-byte entries
		size = 100
	)
	type step struct {
		put  bool
		gen  uint64
		key  string
		size int64 // put only
		hit  bool  // get only: expected outcome
	}
	get := func(gen uint64, key string, hit bool) step { return step{gen: gen, key: key, hit: hit} }
	put := func(gen uint64, key string) step { return step{put: true, gen: gen, key: key, size: size} }
	cases := []struct {
		name  string
		steps []step
		want  CacheStats // MaxBytes filled in below
	}{
		{
			name:  "hit and miss counting",
			steps: []step{get(1, "a", false), put(1, "a"), get(1, "a", true), get(1, "a", true), get(1, "b", false)},
			want:  CacheStats{Hits: 2, Misses: 2, Entries: 1, Bytes: size + cacheEntryOverhead},
		},
		{
			name:  "newer-generation Get drops all older entries, uncounted",
			steps: []step{put(1, "a"), put(1, "b"), get(2, "a", false), get(2, "b", false)},
			want:  CacheStats{Misses: 2},
		},
		{
			name:  "newer-generation Put drops all older entries, uncounted",
			steps: []step{put(1, "a"), put(1, "b"), put(2, "c"), get(2, "a", false), get(2, "c", true)},
			want:  CacheStats{Hits: 1, Misses: 1, Entries: 1, Bytes: size + cacheEntryOverhead},
		},
		{
			name:  "stale-generation Put is discarded and a stale Get misses",
			steps: []step{put(5, "a"), put(4, "b"), get(5, "b", false), get(4, "a", false), get(5, "a", true)},
			want:  CacheStats{Hits: 1, Misses: 2, Entries: 1, Bytes: size + cacheEntryOverhead},
		},
		{
			name: "LRU order under byte pressure",
			steps: []step{
				put(1, "a"), put(1, "b"), put(1, "c"), put(1, "d"),
				get(1, "a", true), // a is now most recent; b is the tail
				put(1, "e"),       // evicts b
				get(1, "b", false), get(1, "a", true), get(1, "c", true), get(1, "d", true), get(1, "e", true),
			},
			want: CacheStats{Hits: 5, Misses: 1, Evictions: 1, Entries: 4, Bytes: max},
		},
		{
			name:  "over-bound value is not cached and evicts nothing",
			steps: []step{put(1, "a"), {put: true, gen: 1, key: "big", size: max}, get(1, "big", false), get(1, "a", true)},
			want:  CacheStats{Hits: 1, Misses: 1, Entries: 1, Bytes: size + cacheEntryOverhead},
		},
		{
			name:  "refill of a resident key keeps the first value",
			steps: []step{put(1, "a"), put(1, "a"), get(1, "a", true)},
			want:  CacheStats{Hits: 1, Entries: 1, Bytes: size + cacheEntryOverhead},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache[string](max)
			for i, st := range tc.steps {
				if st.put {
					c.Put(st.gen, st.key, fmt.Sprintf("%s@%d#%d", st.key, st.gen, i), st.size)
				} else if v, ok := c.Get(st.gen, st.key); ok != st.hit {
					t.Fatalf("step %d: Get(%d, %q) hit = %v, want %v", i, st.gen, st.key, ok, st.hit)
				} else if ok && !strings.HasPrefix(v, fmt.Sprintf("%s@%d#", st.key, st.gen)) {
					t.Fatalf("step %d: Get(%d, %q) = %q: wrong key or generation", i, st.gen, st.key, v)
				}
				if s := c.Stats(); s.Bytes > s.MaxBytes {
					t.Fatalf("step %d: resident bytes %d over the bound %d", i, s.Bytes, s.MaxBytes)
				}
			}
			tc.want.MaxBytes = max
			if got := c.Stats(); got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
		})
	}
	if got := NewCache[int](0).Stats().MaxBytes; got != DefaultCacheBytes {
		t.Errorf("NewCache(0) bound = %d, want DefaultCacheBytes", got)
	}
}

// TestCacheConcurrentHammer races readers, fillers and generation bumps
// on one small cache; under -race it proves the cache is race-clean, and
// the value check proves no entry outlives its generation.
func TestCacheConcurrentHammer(t *testing.T) {
	c := NewCache[uint64](8 * (64 + cacheEntryOverhead))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				gen := uint64(i / 50) // workers bump at different moments: stale and newer calls interleave
				key := fmt.Sprintf("k%d", (i+w)%24)
				if v, ok := c.Get(gen, key); ok && v != gen {
					t.Errorf("Get(%d, %s) served a value computed at generation %d", gen, key, v)
				}
				c.Put(gen, key, gen, 64)
				if s := c.Stats(); s.Bytes > s.MaxBytes {
					t.Errorf("resident bytes %d over the bound %d", s.Bytes, s.MaxBytes)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMatchCacheByteBounded pins the match cache's memory bound at the
// store level: a stream of distinct families whose ID sets together
// exceed the bound is evicted least-recent-first, so resident bytes stay
// under the bound and a family re-asked throughout stays a hit (dropping
// the whole map on overflow would have lost it).
func TestMatchCacheByteBounded(t *testing.T) {
	s := newStore(t)
	const procs, perProc = 24, 64
	var b strings.Builder
	b.WriteString("Application bapp\nExecution bexec bapp\nResource /bapp application\nResource /hot grid\n")
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&b, "Resource /p%d grid\n", p)
		for i := 0; i < perProc; i++ {
			fmt.Fprintf(&b, "PerfResult bexec /bapp,/p%d,/hot(primary) tool \"wall time\" %d.5 seconds\n", p, i)
		}
	}
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}

	count := func(name string) int {
		t.Helper()
		fam, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: core.ResourceName(name)})
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.CountFamilyMatchesCtx(context.Background(), fam)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Each set is charged what its packed form allocates: read the hot
	// family's charge (every result) and a per-/pN family's off the cache.
	count("/hot")
	hot := s.cache.Stats().Bytes
	count("/p0")
	cold := s.cache.Stats().Bytes - hot
	// Room for the hot family and three of the per-/pN families, so the 24
	// cold ones cannot all stay resident.
	s.cache = NewCache[IDSet](hot + 3*cold)

	if n := count("/hot"); n != procs*perProc {
		t.Fatalf("/hot matches = %d, want %d", n, procs*perProc)
	}
	for p := 0; p < procs; p++ {
		if n := count(fmt.Sprintf("/p%d", p)); n != perProc {
			t.Fatalf("/p%d matches = %d, want %d", p, n, perProc)
		}
		hits := s.cache.Stats().Hits
		count("/hot")
		if got := s.cache.Stats().Hits; got != hits+1 {
			t.Fatalf("/hot re-asked after %d cold families was not a hit", p+1)
		}
		if cs := s.cache.Stats(); cs.Bytes > cs.MaxBytes {
			t.Fatalf("resident bytes %d over the bound %d", cs.Bytes, cs.MaxBytes)
		}
	}
	if cs := s.cache.Stats(); cs.Evictions == 0 || cs.Entries != 4 {
		t.Errorf("stats = %+v, want evictions > 0 and 4 resident entries", cs)
	}
}

// TestMatchCacheChargesAllocation pins that the match cache charges each
// resident set exactly what it allocates, plus the per-entry overhead, so
// the byte bound and ptserved_query_cache_bytes count what is held.
func TestMatchCacheChargesAllocation(t *testing.T) {
	s := seedStudy(t)
	var fams []core.Family
	for _, rf := range []core.ResourceFilter{
		{Name: "/GF/Frost", Include: core.IncludeDescendants},
		{Type: "application"},
		{Name: "/GM/MCR", Include: core.IncludeDescendants},
	} {
		fam, err := s.ApplyFilterCtx(context.Background(), rf)
		if err != nil {
			t.Fatal(err)
		}
		fams = append(fams, fam)
	}
	for i := range fams {
		if _, err := s.CountMatchesCtx(context.Background(), core.PRFilter{Families: fams[:i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	var held int64
	for el := s.cache.lru.Front(); el != nil; el = el.Next() {
		held += 8*int64(cap(el.Value.(*cacheEntry[IDSet]).val.words)) + cacheEntryOverhead
	}
	cs := s.cache.Stats()
	if cs.Entries < 5 || held != cs.Bytes || s.QueryEngineStats().CacheBytes != cs.Bytes {
		t.Errorf("%d entries hold %d bytes; the cache charges %d, QueryEngineStats reports %d",
			cs.Entries, held, cs.Bytes, s.QueryEngineStats().CacheBytes)
	}
}
