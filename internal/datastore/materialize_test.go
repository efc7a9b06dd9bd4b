package datastore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
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
	s.AddResource("/irs", "application", "")
	s.AddResource("/GF/Frost/batch/n1/p0", "grid/machine/partition/node/processor", "")
	s.AddResource("/GM/MCR/batch/n1/p0", "grid/machine/partition/node/processor", "")
	s.AddResource("/GM/MCR/batch/n2/p0", "grid/machine/partition/node/processor", "")
	for _, exec := range []string{"m-frost", "m-mcr"} {
		if _, err := s.AddExecution(exec, "irs"); err != nil {
			t.Fatal(err)
		}
	}
	add := func(exec, metric string, value float64, ctxs ...core.Context) {
		t.Helper()
		if _, err := s.AddPerfResult(&core.PerformanceResult{
			Execution: exec, Metric: metric, Value: value, Units: "seconds", Tool: "test",
			Contexts: ctxs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctxFrost := core.NewContext("/irs", "/GF/Frost")
	ctxMCR := core.NewContext("/irs", "/GM/MCR")
	ctxSend := core.Context{Type: core.FocusSender, Resources: []core.ResourceName{"/GM/MCR/batch/n1/p0"}}
	ctxRecv := core.Context{Type: core.FocusReceiver, Resources: []core.ResourceName{"/GM/MCR/batch/n2/p0"}}
	add("m-frost", "wall time", 120, ctxFrost)
	add("m-frost", "cpu time", 110, ctxFrost)
	add("m-mcr", "wall time", 80, ctxMCR)
	// Two contexts; their foci are shared with the messaging result below.
	add("m-mcr", "bytes sent", 4096, ctxSend, ctxRecv)
	// Same foci declared in the opposite order: both paths must emit
	// contexts in focus-ID order, not declaration order.
	add("m-mcr", "message count", 17, ctxRecv, ctxSend)
	// Focus shared across executions.
	add("m-frost", "proc time", 2.5, core.NewContext("/irs", "/GF/Frost/batch/n1/p0"))
	add("m-mcr", "proc time", 1.5, core.NewContext("/irs", "/GF/Frost/batch/n1/p0"))

	ids, err := s.MatchingResultIDs(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 7 {
		t.Fatalf("seed results = %d, want 7", len(ids))
	}
	return s, ids
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
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			got, err := s.MaterializeResultsOpts(order, MaterializeOptions{Workers: workers})
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
		err := s.MaterializeStream(ids, MaterializeOptions{ChunkSize: chunk},
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
	err := s.MaterializeStream(ids, MaterializeOptions{ChunkSize: 2},
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
	// Both sparse (one ID) and dense (full set plus one) shapes.
	for _, bad := range [][]int64{{ids[len(ids)-1] + 999}, append(append([]int64{}, ids...), ids[len(ids)-1]+999)} {
		if _, err := s.MaterializeResults(bad); !errors.Is(err, ErrNotFound) {
			t.Errorf("MaterializeResults(%d ids) err = %v, want ErrNotFound", len(bad), err)
		}
	}
	out, err := s.MaterializeResults(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty materialize = %v, %v", out, err)
	}
}

func TestQueryResultsUsesBatchPath(t *testing.T) {
	s, ids := seedMaterializeStudy(t)
	want := perIDResults(t, s, ids)
	got, err := s.QueryResults(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("QueryResults differs from per-ID materialization")
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
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, addSegResult(t, s, i))
	}
	// A dense subset that starts and ends inside a block.
	ids = ids[50 : n-50]
	got, err := s.MaterializeResults(ids)
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
		if i%3 != 0 { // addSegResult gives every third result a second focus
			ids = append(ids, addSegResult(t, s, i))
		}
	}
	var refs uint64
	for round := 0; round < 2; round++ {
		// Two chunks per round: the second finds its foci cached.
		err := s.MaterializeStream(ids, MaterializeOptions{ChunkSize: len(ids)/2 + 1},
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

func reverse(ids []int64) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}
