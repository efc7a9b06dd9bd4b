package diagnose

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// withWorkers sets GOMAXPROCS, the width of every fan-out, to n for the
// rest of the test.
func withWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// fleetStore loads a synthetic fleet into a fresh in-memory store.
func fleetStore(t testing.TB, spec gen.FleetSpec) (*datastore.Store, *gen.Fleet) {
	t.Helper()
	fleet, err := gen.FleetRecords(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range fleet.Records {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, fleet
}

func TestDiagnoseFleetRanksPlantedPredicate(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 100, Seed: 7})
	res, err := Run(context.Background(), s, Spec{
		ExecsA:  fleet.Fast,
		ExecsB:  fleet.Slow,
		Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatalf("no explanations; trace:\n%s", strings.Join(res.Trace, "\n"))
	}
	top := res.Explanations[0]
	if got := top.Pred.String(); got != "compiler = -O0" {
		t.Fatalf("top explanation %q (score %.3f), want planted compiler = -O0; trace:\n%s",
			got, top.Score, strings.Join(res.Trace, "\n"))
	}
	if top.Score <= 0.99 {
		t.Fatalf("planted predicate score = %v, want ~1", top.Score)
	}
	if len(res.Explanations) > 1 && res.Explanations[1].Score >= top.Score {
		t.Fatalf("planted predicate does not dominate: #2 %q score %v",
			res.Explanations[1].Pred, res.Explanations[1].Score)
	}
	// The headline perf must reflect the planted 2x slowdown.
	if res.Ratio < 1.8 || res.Ratio > 2.2 {
		t.Fatalf("side ratio = %v, want ~2", res.Ratio)
	}
	if res.Keys == 0 || res.Candidates == 0 || len(res.Trace) == 0 {
		t.Fatalf("missing search metadata: keys %d candidates %d trace %d",
			res.Keys, res.Candidates, len(res.Trace))
	}
	// Bottleneck ranking: both time metrics slowed down 2x; wall clock
	// time (100 vs 20 base) contributes the most.
	if len(res.Bottlenecks) == 0 || res.Bottlenecks[0].Metric != "wall clock time" {
		t.Fatalf("bottlenecks = %+v", res.Bottlenecks)
	}
}

// countingCtx is a context whose Err answers nil a set number of times,
// then context.Canceled: it is cancelled at a chosen ctx check, whatever
// the clock.
type countingCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
	once sync.Once
}

func cancelAfter(checks int64) *countingCtx {
	c := &countingCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(checks)
	return c
}

func (c *countingCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

func (c *countingCtx) Done() <-chan struct{} { return c.done }

// readsCtx counts the ctx checks made inside one read of the store,
// the method named by fn: one per block read, or per 1024 IDs looked up.
type readsCtx struct {
	context.Context
	fn    string
	reads atomic.Int64
}

func (c *readsCtx) Err() error {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "datastore.(*Store)."+c.fn) {
			c.reads.Add(1)
			return nil
		}
		if !more {
			return nil
		}
	}
}

// TestDiagnoseReadsEachResultOnce: a diagnosis reads each execution's
// performance_result columns once, and its result → focus links once,
// as one pass over each does — one to one, and between sets of
// executions, whose footprints come from the resources the comparison
// read.
func TestDiagnoseReadsEachResultOnce(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 10, Seed: 3})
	for _, c := range []struct {
		name string
		spec Spec
		fn   string
	}{
		{"one to one", Spec{ExecA: fleet.Fast[0], ExecB: fleet.Slow[0]}, "ResultColumns"},
		{"one to one", Spec{ExecA: fleet.Fast[0], ExecB: fleet.Slow[0]}, "ResultFoci"},
		{"sets", Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow}, "ResultColumns"},
		{"sets", Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow}, "ResultFoci"},
	} {
		once := &readsCtx{Context: context.Background(), fn: c.fn}
		for _, exec := range append(append([]string{c.spec.ExecA, c.spec.ExecB}, c.spec.ExecsA...), c.spec.ExecsB...) {
			if exec == "" {
				continue
			}
			ids, err := s.ExecutionResultIDs(exec)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ResultColumns(once, ids, func(int, int64, int64, float64) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := s.ResultFoci(once, ids, func(int, int64) {}); err != nil {
				t.Fatal(err)
			}
		}
		run := &readsCtx{Context: context.Background(), fn: c.fn}
		if _, err := Run(run, s, c.spec); err != nil {
			t.Fatal(err)
		}
		if got, want := run.reads.Load(), once.reads.Load(); want == 0 || got != want {
			t.Errorf("%s: a diagnosis made %d checks in %s; one pass over each execution makes %d", c.name, got, c.fn, want)
		}
	}
}

// twoExecs loads executions "a" and "b" of one application: result i
// measures its metric at function f<i> on each, so each aligns with its
// counterpart.
func twoExecs(t *testing.T, results []ptdf.PerfResultRec, b []float64) *datastore.Store {
	t.Helper()
	recs := []ptdf.Record{ptdf.ApplicationRec{Name: "app"}, ptdf.ResourceRec{Name: "/app", Type: "application"}}
	for i := range results {
		recs = append(recs, ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/build/m/f%d", i)), Type: "build/module/function"})
	}
	for _, exec := range []string{"a", "b"} {
		recs = append(recs, ptdf.ExecutionRec{Name: exec, App: "app"},
			ptdf.ResourceRec{Name: core.ResourceName("/" + exec), Type: "execution", Exec: exec})
		for i, pr := range results {
			pr.Exec, pr.Tool = exec, "gen"
			pr.Sets = []ptdf.ResourceSet{{Names: []core.ResourceName{"/app", core.ResourceName(fmt.Sprintf("/build/m/f%d", i)), core.ResourceName("/" + exec)}, Type: core.FocusPrimary}}
			if exec == "b" {
				pr.Value = b[i]
			}
			recs = append(recs, pr)
		}
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiagnoseNaNPairIsNoSlowdown: a context whose B value is NaN (as
// Paradyn imports carry) is not a finding, and the others share the
// slowdown whole.
func TestDiagnoseNaNPairIsNoSlowdown(t *testing.T) {
	wall := ptdf.PerfResultRec{Metric: "wall time", Units: "seconds", Value: 10}
	s := twoExecs(t, []ptdf.PerfResultRec{wall, wall, wall}, []float64{12, math.NaN(), 11})
	res, err := Run(context.Background(), s, Spec{ExecA: "a", ExecB: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedPairs != 3 || len(res.Contexts) != 2 ||
		res.Contexts[0].Delta != 2 || res.Contexts[0].Contribution != 2.0/3 ||
		res.Contexts[1].Delta != 1 || res.Contexts[1].Contribution != 1.0/3 {
		t.Fatalf("%d pairs, contexts %+v; want deltas 2 and 1 sharing the slowdown 2:1", res.AlignedPairs, res.Contexts)
	}
}

// TestDiagnoseBottlenecksRankTimeLikeMetrics: with no metric named, the
// bottleneck ranking takes time-like metrics only, as the perf measure
// does; a counter's delta is not summed with seconds.
func TestDiagnoseBottlenecksRankTimeLikeMetrics(t *testing.T) {
	s := twoExecs(t, []ptdf.PerfResultRec{
		{Metric: "wall time", Units: "seconds", Value: 10},
		{Metric: "cache misses", Units: "count", Value: 100},
	}, []float64{12, 500})
	res, err := Run(context.Background(), s, Spec{ExecA: "a", ExecB: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottlenecks) != 1 || res.Bottlenecks[0].Metric != "wall time" || res.Bottlenecks[0].Contribution != 1 {
		t.Fatalf("bottlenecks %+v, want wall time alone with the whole slowdown", res.Bottlenecks)
	}
	// Named, the counter is ranked.
	res, err = Run(context.Background(), s, Spec{ExecA: "a", ExecB: "b", Metric: "cache misses"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bottlenecks) != 1 || res.Bottlenecks[0].Metric != "cache misses" || res.Bottlenecks[0].Delta != 400 {
		t.Fatalf("bottlenecks for cache misses %+v, want it alone, delta 400", res.Bottlenecks)
	}
}

// TestDiagnoseStopsWhenCancelled: a diagnosis whose context is cancelled
// once the features are folded — at the first attribute key, or at the
// first candidate — returns context.Canceled instead of a result, at
// one worker and at several, with sides named and with sides selected
// by families, whose owner pass checks once per block.
func TestDiagnoseStopsWhenCancelled(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 40, Seed: 7})
	for _, spec := range []Spec{
		{ExecsA: fleet.Fast, ExecsB: fleet.Slow},
		{FamiliesA: []string{"attr=compiler=-O2"}, FamiliesB: []string{"attr=compiler=-O0"}},
	} {
		for _, workers := range []int{1, 4} {
			withWorkers(t, workers)
			var full *Result
			for range 2 { // the match cache stores a family's set on its second fill
				var err error
				full, err = Run(context.Background(), s, spec)
				if err != nil || full.Keys == 0 || full.Candidates == 0 {
					t.Fatalf("w%d: uncancelled run: %+v, %v", workers, full, err)
				}
			}
			// The checks Run's selection and feature phases make before it
			// enumerates: the same calls, counted.
			count := cancelAfter(math.MaxInt64)
			a, err := resolveSide(count, s, spec.ExecA, spec.ExecsA, spec.FamiliesA, "A")
			if err != nil {
				t.Fatal(err)
			}
			b, err := resolveSide(count, s, spec.ExecB, spec.ExecsB, spec.FamiliesB, "B")
			if err != nil {
				t.Fatal(err)
			}
			cmp, err := compare.Sets(count, s, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := extractFeatures(count, s, cmp); err != nil {
				t.Fatal(err)
			}
			before := math.MaxInt64 - count.left.Load()
			for _, c := range []struct {
				phase string
				after int64
			}{{"enumerate", before}, {"score", before + int64(full.Keys)}} {
				if res, err := Run(cancelAfter(c.after), s, spec); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), c.phase) {
					t.Errorf("w%d %v: cancelled in the %s phase: result %t, err %v; want context.Canceled from it", workers, spec, c.phase, res != nil, err)
				}
			}
		}
	}
}

func TestDiagnoseParallelMatchesSerial(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 60, Seed: 11})
	withWorkers(t, 1)
	serial, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow})
	if err != nil {
		t.Fatal(err)
	}
	withWorkers(t, 8)
	parallel, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Explanations, parallel.Explanations) {
		t.Fatalf("serial and parallel diverge:\n%+v\nvs\n%+v", serial.Explanations, parallel.Explanations)
	}
	if !reflect.DeepEqual(serial.Bottlenecks, parallel.Bottlenecks) {
		t.Fatalf("bottlenecks diverge")
	}
}

func TestDiagnoseNumericThresholdPredicate(t *testing.T) {
	// Plant a purely numeric discriminator with a domain small enough to
	// enumerate but where only a threshold separates the sides exactly.
	var recs []ptdf.Record
	recs = append(recs, ptdf.ApplicationRec{Name: "app"})
	var fast, slow []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("exec-%02d", i)
		recs = append(recs, ptdf.ExecutionRec{Name: name, App: "app"})
		res := core.ResourceName("/" + name)
		recs = append(recs, ptdf.ResourceRec{Name: res, Type: "execution", Exec: name})
		mem := 100 + 10*(i%4) // slow: 100..130
		value := 50.0
		if i%2 == 0 {
			mem = 200 + 10*(i%4) // fast: 200..230
			value = 25.0
			fast = append(fast, name)
		} else {
			slow = append(slow, name)
		}
		recs = append(recs, ptdf.ResourceAttributeRec{
			Resource: res, Attr: "memory per node MB", Value: fmt.Sprintf("%d", mem), AttrType: "string",
		})
		recs = append(recs, ptdf.PerfResultRec{
			Exec: name, Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{res}, Type: core.FocusPrimary}},
			Tool: "gen", Metric: "wall clock time", Units: "seconds", Value: value,
		})
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, Spec{ExecsA: fast, ExecsB: slow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	top := res.Explanations[0]
	if top.Pred.Attr != "memory per node MB" || top.Pred.Op != "<=" {
		t.Fatalf("top = %q, want a memory threshold", top.Pred)
	}
	if top.Effect != 1 {
		t.Fatalf("threshold effect = %v, want 1", top.Effect)
	}
}

func TestDiagnoseOneVsOneAlignsContexts(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 10, Seed: 3})
	res, err := Run(context.Background(), s, Spec{ExecA: fleet.Fast[0], ExecB: fleet.Slow[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedPairs == 0 {
		t.Fatal("no aligned pairs in 1v1 mode")
	}
	if len(res.Contexts) == 0 {
		t.Fatal("no context findings in 1v1 mode")
	}
	if res.Delta <= 0 {
		t.Fatalf("delta = %v, want positive (B planted slower)", res.Delta)
	}
	// Set mode must not produce context findings.
	setRes, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow})
	if err != nil {
		t.Fatal(err)
	}
	if setRes.AlignedPairs != 0 || len(setRes.Contexts) != 0 {
		t.Fatalf("set mode produced 1v1 evidence: %d pairs, %d contexts",
			setRes.AlignedPairs, len(setRes.Contexts))
	}
}

func TestDiagnoseFamilySides(t *testing.T) {
	// Select the sides by pr-filter families over the planted attribute's
	// values, exercising the ApplyFilterCtx → MatchingResultIDsCtx →
	// ExecutionsOfResults path.
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 30, Seed: 5})
	res, err := Run(context.Background(), s, Spec{
		FamiliesA: []string{"attr=compiler=-O2"},
		FamiliesB: []string{"attr=compiler=-O0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SideA) != len(fleet.Fast) || len(res.SideB) != len(fleet.Slow) {
		t.Fatalf("family selection: %d/%d executions, want %d/%d",
			len(res.SideA), len(res.SideB), len(fleet.Fast), len(fleet.Slow))
	}
	if res.Ratio < 1.8 || res.Ratio > 2.2 {
		t.Fatalf("ratio = %v, want ~2", res.Ratio)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 6, Seed: 1})
	// Unknown execution → ErrNotFound.
	_, err := Run(context.Background(), s, Spec{ExecA: fleet.Fast[0], ExecB: "nope"})
	if !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("unknown execution: %v, want ErrNotFound", err)
	}
	// Ambiguous side selection → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "x", FamiliesA: []string{"type=application"}, ExecB: "y"})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("ambiguous side: %v, want ErrBadSpec", err)
	}
	// No side at all → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "x"})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("missing side: %v, want ErrBadSpec", err)
	}
	// Bad family spec → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{FamiliesA: []string{"bogus=="}, ExecB: fleet.Slow[0]})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("bad family: %v, want ErrBadSpec", err)
	}
	// Families matching nothing → ErrNotFound.
	_, err = Run(context.Background(), s, Spec{FamiliesA: []string{"name=/no/such/resource"}, ExecB: fleet.Slow[0]})
	if !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("empty family: %v, want ErrNotFound", err)
	}
	// Out-of-range knobs → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "a", ExecB: "b", MinCoverage: 2})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("bad min_coverage: %v, want ErrBadSpec", err)
	}
}

func TestParseRequest(t *testing.T) {
	sp, err := ParseRequest([]byte(`{"exec_a":"a","exec_b":"b","metric":"m","top":3,"explain":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExecA != "a" || sp.ExecB != "b" || sp.Metric != "m" || sp.Top != 3 || !sp.Explain {
		t.Fatalf("parsed %+v", sp)
	}
	for _, bad := range []string{
		``,
		`{`,
		`{"exec_a":"a"}`, // missing side B
		`{"exec_a":"a","exec_b":"b","unknown":1}`,     // unknown field
		`{"exec_a":"a","exec_b":"b"} trailing`,        // trailing data
		`{"exec_a":"a","execs_a":["x"],"exec_b":"b"}`, // ambiguous side
		`{"exec_a":"a","exec_b":"b","top":-1}`,
	} {
		if _, err := ParseRequest([]byte(bad)); !errors.Is(err, datastore.ErrBadSpec) {
			t.Errorf("ParseRequest(%q) = %v, want ErrBadSpec", bad, err)
		}
	}
}
