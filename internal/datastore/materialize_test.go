package datastore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"perftrack/internal/core"
)

// seedMaterializeStudy builds a store exercising everything the batch
// materializer must reproduce: multi-context results, foci shared
// across results (including reused in a different declaration order, so
// context order follows focus-ID order, not insertion order), deep
// resource paths, and several executions.
func seedMaterializeStudy(t *testing.T) (*Store, []int64) {
	t.Helper()
	s := newStore(t)
	const (
		ctxSend = "/GM/MCR/batch/n1/p0(sender)"
		ctxRecv = "/GM/MCR/batch/n2/p0(receiver)"
	)
	load(t, s,
		"Resource /irs application",
		"Resource /GF/Frost/batch/n1/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n1/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n2/p0 grid/machine/partition/node/processor",
		"Execution m-frost irs",
		"Execution m-mcr irs",
		`PerfResult m-frost /irs,/GF/Frost(primary) test "wall time" 120 seconds`,
		`PerfResult m-frost /irs,/GF/Frost(primary) test "cpu time" 110 seconds`,
		`PerfResult m-mcr /irs,/GM/MCR(primary) test "wall time" 80 seconds`,
		// Two contexts; their foci are shared with the messaging result below.
		`PerfResult m-mcr `+ctxSend+":"+ctxRecv+` test "bytes sent" 4096 seconds`,
		// Same foci declared in the opposite order: both paths must emit
		// contexts in focus-ID order, not declaration order.
		`PerfResult m-mcr `+ctxRecv+":"+ctxSend+` test "message count" 17 seconds`,
		// Focus shared across executions.
		`PerfResult m-frost /irs,/GF/Frost/batch/n1/p0(primary) test "proc time" 2.5 seconds`,
		`PerfResult m-mcr /irs,/GF/Frost/batch/n1/p0(primary) test "proc time" 1.5 seconds`)

	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 7 {
		t.Fatalf("seed results = %d, want 7", len(ids))
	}
	return s, ids
}

// withWorkers sets GOMAXPROCS, the width of every fan-out, to n for the
// rest of the test.
func withWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// perIDResults is the reference implementation: the N+1 path.
func perIDResults(t *testing.T, s *Store, ids []int64) []*core.PerformanceResult {
	t.Helper()
	out := make([]*core.PerformanceResult, 0, len(ids))
	for _, id := range ids {
		pr, err := s.ResultByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pr)
	}
	return out
}

func TestMaterializeEquivalence(t *testing.T) {
	s, ids := seedMaterializeStudy(t)

	orders := map[string][]int64{
		"sorted":     ids,
		"reversed":   reverse(ids),
		"subset":     {ids[3], ids[0]},
		"single":     {ids[4]},
		"duplicates": {ids[2], ids[5], ids[2], ids[2]},
		// A duplicate before a later distinct ID: first-occurrence
		// positions and compact uniq indices disagree here.
		"dup-shifts-later": {ids[1], ids[1], ids[4], ids[0]},
	}
	for name, order := range orders {
		want := perIDResults(t, s, order)
		for _, workers := range []int{1, 4} {
			withWorkers(t, workers)
			// One chunk of the whole order: MaterializeResultsCtx's work.
			var got []*core.PerformanceResult
			err := s.MaterializeStreamCtx(context.Background(), order, MaterializeOptions{ChunkSize: len(order)},
				func(batch []*core.PerformanceResult) error {
					got = batch
					return nil
				})
			if err != nil {
				t.Fatalf("%s/w%d: %v", name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/w%d: %d results, want %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s/w%d: result %d differs:\n got  %+v\n want %+v",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMaterializeStreamEquivalence(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	want := perIDResults(t, s, ids)
	for _, chunk := range []int{1, 3, len(ids), len(ids) + 5} {
		var got []*core.PerformanceResult
		batches := 0
		err := s.MaterializeStreamCtx(context.Background(), ids, MaterializeOptions{ChunkSize: chunk},
			func(batch []*core.PerformanceResult) error {
				batches++
				got = append(got, batch...)
				return nil
			})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		wantBatches := (len(ids) + chunk - 1) / chunk
		if batches != wantBatches {
			t.Errorf("chunk %d: %d batches, want %d", chunk, batches, wantBatches)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk %d: stream output differs from per-ID path", chunk)
		}
	}
}

func TestMaterializeStreamEmitError(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	boom := errors.New("boom")
	calls := 0
	err := s.MaterializeStreamCtx(context.Background(), ids, MaterializeOptions{ChunkSize: 2},
		func([]*core.PerformanceResult) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after error, want 1", calls)
	}
}

func TestMaterializeNotFound(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	// Compact shapes (one ID; the full set plus one) and a wide one (an
	// ID far past the rest), read by a block pass and by Lookups.
	last := ids[len(ids)-1]
	for _, bad := range [][]int64{{last + 999}, append(append([]int64{}, ids...), last+999), {ids[0], last + 1<<20}} {
		if _, err := s.MaterializeResultsCtx(context.Background(), bad); !errors.Is(err, ErrNotFound) {
			t.Errorf("MaterializeResultsCtx(%d ids) err = %v, want ErrNotFound", len(bad), err)
		}
	}
	out, err := s.MaterializeResultsCtx(context.Background(), nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty materialize = %v, %v", out, err)
	}
}

func TestQueryResultsUsesBatchPath(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	want := perIDResults(t, s, ids)
	matched, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.MaterializeResultsCtx(context.Background(), matched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("matched results differ from per-ID materialization")
	}

	// One execution's rows read as columns agree with the per-ID path.
	own, err := s.ExecutionResultIDs("m-mcr")
	if err != nil {
		t.Fatal(err)
	}
	byID := perIDResults(t, s, own)
	metrics, units := s.Dict("metric"), s.Dict("units")
	seen := 0
	if err := s.ResultColumns(context.Background(), own, func(i int, metric, unit int64, value float64) error {
		pr := byID[i]
		if pr.Execution != "m-mcr" || metrics.Name(metric) != pr.Metric || units.Name(unit) != pr.Units || value != pr.Value {
			t.Errorf("row %d = (%s, %s, %v), per-ID %+v", i, metrics.Name(metric), units.Name(unit), value, pr)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 4 {
		t.Fatalf("m-mcr rows = %d, want 4", seen)
	}
	if err := s.ResultColumns(context.Background(), append(own, own[len(own)-1]+999), func(int, int64, int64, float64) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResultColumns with a missing ID = %v, want ErrNotFound", err)
	}

	// The column reads on a compact set (m-mcr's own) and on a wide one
	// (the same plus a result past 1100 others, whose focus is as far
	// past the seed's foci), against the per-ID path.
	far := addSpreadResults(t, s, 1100)
	for k, set := range [][]int64{own, append(append([]int64{}, own...), far)} {
		if wide := s.borrowIndex(set).slots == nil; wide != (k == 1) {
			t.Fatalf("set %d wide = %v", k, wide)
		}
		checkColumnReads(t, s, set)
	}
	if err := s.ResultColumns(context.Background(), []int64{own[0], far + 999}, func(int, int64, int64, float64) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResultColumns with a missing ID in a wide set = %v, want ErrNotFound", err)
	}
}

// addSpreadResults adds n m-frost results to seedMaterializeStudy's
// store, each with a focus of its own, and returns the last one's ID.
func addSpreadResults(t *testing.T, s *Store, n int) int64 {
	t.Helper()
	var doc []string
	for i := range n {
		proc := fmt.Sprintf("/GF/Frost/batch/n1/p%d", i+1)
		doc = append(doc, "Resource "+proc+" grid/machine/partition/node/processor",
			fmt.Sprintf("PerfResult m-frost /irs,%s(primary) test spread %d seconds", proc, i))
	}
	load(t, s, doc...)
	ids, err := s.ExecutionResultIDs("m-frost")
	if err != nil {
		t.Fatal(err)
	}
	return ids[len(ids)-1]
}

// checkColumnReads reads the results ids (ascending, distinct) through
// ResultColumns, ResultFoci, FocusResources and ExecutionsOfResults and
// compares each with ResultByID. Whether ids and their foci are compact
// or wide decides the branch every read takes.
func checkColumnReads(t *testing.T, s *Store, ids []int64) {
	t.Helper()
	ctx := context.Background()
	want := perIDResults(t, s, ids)
	metrics, units := s.Dict("metric"), s.Dict("units")
	seen := 0
	if err := s.ResultColumns(ctx, ids, func(i int, metric, unit int64, value float64) error {
		if pr := want[i]; metrics.Name(metric) != pr.Metric || units.Name(unit) != pr.Units || value != pr.Value {
			t.Errorf("row %d = (%s, %s, %v), per-ID %+v", ids[i], metrics.Name(metric), units.Name(unit), value, pr)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(ids) {
		t.Fatalf("ResultColumns read %d of %d results", seen, len(ids))
	}

	foci := make([][]int64, len(ids))
	var fids []int64
	if err := s.ResultFoci(ctx, ids, func(i int, focus int64) {
		foci[i] = append(foci[i], focus)
		fids = append(fids, focus)
	}); err != nil {
		t.Fatal(err)
	}
	fids = sortDedup(fids)
	rids, _, err := s.FocusResources(ctx, fids, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Dict("resource_item")
	for i, pr := range want {
		var got [][]core.ResourceName
		for _, f := range foci[i] {
			var names []core.ResourceName
			for _, r := range rids[slices.Index(fids, f)] {
				names = append(names, core.ResourceName(res.Name(r)))
			}
			got = append(got, names)
		}
		var ref [][]core.ResourceName
		for _, c := range pr.Contexts {
			ref = append(ref, c.Resources)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("result %d: foci read as %v, per-ID contexts %v", ids[i], got, ref)
		}
	}

	execs, err := s.ExecutionsOfResults(ctx, NewIDSet(ids))
	if err != nil {
		t.Fatal(err)
	}
	var ref []string
	for _, pr := range want {
		ref = append(ref, pr.Execution)
	}
	slices.Sort(ref)
	if ref = slices.Compact(ref); !reflect.DeepEqual(execs, ref) {
		t.Errorf("ExecutionsOfResults = %v, want %v", execs, ref)
	}
}

// TestMaterializeDenseBlocksOnMem pins the dense fetch on a store whose
// hot tables never seal: every row, result link and focus link comes from
// an unflushed tail — a view, or blocks of up to 4096 rows transposed
// through its key order, here across two block boundaries — and must
// equal the per-ID reference.
func TestMaterializeDenseBlocksOnMem(t *testing.T) {
	s := newStore(t)
	s.Engine().SetSegmentFlushRows(1 << 40)
	seedSegmentStudy(t, s)
	const n = 2*4096 + 100
	ids := addSegResults(t, s, 0, n)
	// A dense subset that starts and ends inside a block.
	ids = ids[50 : n-50]
	got, err := s.MaterializeResultsCtx(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	want := perIDResults(t, s, ids)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("result %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
	if scans := s.Telemetry().SegmentScans; scans != 0 {
		t.Fatalf("a store without segments recorded %d segment scans", scans)
	}
}

// TestFocusCacheHitsBounded materializes single-focus results twice on
// one store: hits and misses are drawn from the same population (every
// focus reference in a chunk), so hits can never exceed the references
// seen — the counter used to go negative and wrap for single-focus
// results.
func TestFocusCacheHitsBounded(t *testing.T) {
	s := newStore(t)
	seedSegmentStudy(t, s)
	var ids []int64
	for i := 1; i <= 40; i++ {
		if i%3 != 0 { // addSegResults gives every third result a second focus
			ids = append(ids, addSegResults(t, s, i, i+1)...)
		}
	}
	var refs uint64
	for round := 0; round < 2; round++ {
		// Two chunks per round: the second finds its foci cached.
		err := s.MaterializeStreamCtx(context.Background(), ids, MaterializeOptions{ChunkSize: len(ids)/2 + 1},
			func([]*core.PerformanceResult) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		refs += uint64(len(ids)) // one focus each
		if hits := s.Telemetry().FocusCacheHits; hits == 0 || hits > refs {
			t.Fatalf("round %d: FocusCacheHits = %d, want in [1, %d focus references]", round, hits, refs)
		}
	}
}

// TestFocusCacheHitsWithinChunk materializes N single-focus results over
// k distinct foci in one chunk of a fresh request: each focus is decoded
// once, so the chunk reads k misses and N-k hits.
func TestFocusCacheHitsWithinChunk(t *testing.T) {
	s := newStore(t)
	seedSegmentStudy(t, s)
	const n, k = 40, 4 // commitResults cycles through four nodes
	ids := commitResults(t, s, n)
	before := s.Telemetry()
	if _, err := s.MaterializeResultsCtx(context.Background(), ids); err != nil {
		t.Fatal(err)
	}
	after := s.Telemetry()
	hits, misses := after.FocusCacheHits-before.FocusCacheHits, after.FocusCacheMisses-before.FocusCacheMisses
	if hits != n-k || misses != k {
		t.Fatalf("hits, misses = %d, %d, want %d, %d", hits, misses, n-k, k)
	}
}

// TestMaterializeCancelled checks that a cancelled context stops the
// materializer before it reads anything.
func TestMaterializeCancelled(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := s.Telemetry().ResultsRead
	err := s.MaterializeStreamCtx(ctx, ids, MaterializeOptions{ChunkSize: 2},
		func([]*core.PerformanceResult) error {
			t.Error("emit called under a cancelled context")
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := s.Telemetry().ResultsRead; after != before {
		t.Fatalf("cancelled materialization read %d results", after-before)
	}
}

// TestKeyedLookupCancelled cancels a ResultColumns read of a wide set —
// one primary-key Lookup per ID — from its first row: the read stops at
// its next check, within 1024 keys, with the context's error.
func TestKeyedLookupCancelled(t *testing.T) {
	s := newStore(t)
	seedSegmentStudy(t, s)
	all := commitResults(t, s, 15000)
	var wide []int64
	for i := 0; i < len(all); i += 5 {
		wide = append(wide, all[i])
	}
	if s.borrowIndex(wide).slots != nil {
		t.Fatalf("%d IDs over %d are compact", len(wide), wide[len(wide)-1]-wide[0]+1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	keys := make(map[int]bool)
	err := s.ResultColumns(ctx, wide, func(i int, _, _ int64, _ float64) error {
		cancel()
		keys[i] = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(keys) > 1024 {
		t.Fatalf("a cancelled read went on for %d keys", len(keys))
	}
}

// wideIDs returns every k-th of ids, last first, with the first two
// repeated at the end: reversed, with duplicates, and spanning more than
// 4n + 1024 IDs, so keyed reads them by Lookup.
func wideIDs(t *testing.T, ids []int64, k int) []int64 {
	t.Helper()
	var w []int64
	for i := len(ids) - 1; i >= 0; i -= k {
		w = append(w, ids[i])
	}
	w = append(w, w[0], w[1])
	var p posIndex
	if p.reset(w); p.slots != nil {
		t.Fatalf("every %dth of %d IDs is compact", k, len(ids))
	}
	return w
}

func reverse(ids []int64) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}
