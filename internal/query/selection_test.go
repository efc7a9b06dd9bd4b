package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

func TestResolve(t *testing.T) {
	s := studyStore(t)
	ctx := context.Background()

	// Families intersect, executions union, and the two intersect.
	res, err := Resolve(ctx, s, &Selection{
		Families:   []string{"name=/GF/Frost", "attr=nprocs=8"},
		Executions: []string{"irs-mcr-8", "irs-frost-8", "irs-frost-16"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || len(res.Filters) != 2 || len(res.PRFilter.Families) != 2 {
		t.Fatalf("ids %v, %d filters, %d families", res.IDs(), len(res.Filters), len(res.PRFilter.Families))
	}
	if want := (FamilyCount{Spec: "name=/GF/Frost", Resources: 1, Matches: 4}); res.Counts[0] != want {
		t.Errorf("counts[0] = %+v, want %+v", res.Counts[0], want)
	}
	results, err := s.MaterializeResultsCtx(ctx, res.IDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range results {
		if pr.Execution != "irs-frost-8" {
			t.Errorf("selected a result of %s", pr.Execution)
		}
	}

	// An execution-only selection is the execution index's answer: the
	// pr-filter (here: every result) is never evaluated or cached.
	before := s.QueryEngineStats()
	res, err = Resolve(ctx, s, &Selection{Execution: "irs-mcr-16"})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := s.ExecutionResultIDs("irs-mcr-16"); fmt.Sprint(res.IDs()) != fmt.Sprint(want) || len(want) != 2 {
		t.Errorf("ids = %v, want %v", res.IDs(), want)
	}
	if after := s.QueryEngineStats(); after != before {
		t.Errorf("execution-only selection touched the match cache: %+v -> %+v", before, after)
	}

	// Nothing selected is everything, ascending.
	all, err := Resolve(ctx, s, nil)
	if err != nil || all.Len() != 8 || all.Counts == nil {
		t.Fatalf("nil selection: %d ids, counts %v, err %v", all.Len(), all.Counts, err)
	}
	for ids, i := all.IDs(), 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}

	for _, bad := range []struct {
		sel  Selection
		want error
	}{
		{Selection{Families: []string{"type=application", "nonsense"}}, datastore.ErrBadSpec},
		{Selection{Execution: "irs-frost-8", Executions: []string{"gone"}}, datastore.ErrNotFound},
		{Selection{Families: []string{"rel=X"}, Execution: "gone"}, datastore.ErrBadSpec}, // families first
	} {
		if _, err := Resolve(ctx, s, &bad.sel); !errors.Is(err, bad.want) {
			t.Errorf("%+v: err = %v, want %v", bad.sel, err, bad.want)
		}
	}
}

// TestResolveConcurrentWithWrites resolves one selection from many
// goroutines — as concurrently served routes and the planner's callers do
// — while a writer keeps bumping the store generation under the shared
// match cache. Every answer must hold at least the results that were
// there before the writer started.
func TestResolveConcurrentWithWrites(t *testing.T) {
	s := studyStore(t)
	sel := &Selection{Families: []string{"type=application", "name=/GM/MCR"}}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			exec := fmt.Sprintf("irs-mcr-extra-%d", i)
			if _, err := s.AddExecution(exec, "irs"); err != nil {
				t.Error(err)
				return
			}
			for _, metric := range []string{"wall time", "mpi time"} {
				if _, err := s.AddPerfResult(&core.PerformanceResult{
					Execution: exec, Metric: metric, Value: 1, Units: "seconds", Tool: "IRS",
					Contexts: []core.Context{core.NewContext("/irs", "/GM/MCR")},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				res, err := Resolve(context.Background(), s, sel)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() < 4 {
					t.Errorf("selection lost committed results: %d ids", res.Len())
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestResolveCountCopiesNothing pins that resolving a cached selection for
// its count — what /v1/query answers — builds no ID list: the bytes
// allocated per call do not grow with the match count.
func TestResolveCountCopiesNothing(t *testing.T) {
	perCall := func(n int) int64 {
		s, err := datastore.Open(reldb.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Engine().Close() })
		var b strings.Builder
		b.WriteString("Application app\nExecution exec app\nResource /app application\nResource /hot grid\n")
		for i := range n {
			fmt.Fprintf(&b, "PerfResult exec /app,/hot(primary) tool \"wall time\" %d.5 seconds\n", i)
		}
		if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(b.String())); err != nil {
			t.Fatal(err)
		}
		sel := &Selection{Families: []string{"name=/hot;rel=N", "type=application"}}
		best := int64(-1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 10 {
				if res, err := Resolve(context.Background(), s, sel); err != nil || res.Len() != n {
					t.Fatalf("Resolve: %v, err %v; want %d matches", res, err, n)
				}
			}
			runtime.ReadMemStats(&after)
			if got := int64(after.TotalAlloc-before.TotalAlloc) / 10; best < 0 || got < best {
				best = got
			}
		}
		return best
	}
	const small, large = 500, 4000
	if a, b := perCall(small), perCall(large); b-a > 8*(large-small)/4 {
		t.Errorf("Resolve allocates %d B per call at %d matches, %d B at %d: it grows with the match count", a, small, b, large)
	}
}
