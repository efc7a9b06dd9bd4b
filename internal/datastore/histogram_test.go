package datastore

import (
	"context"
	"math"
	"strings"
	"testing"

	"perftrack/internal/core"
)

func histStore(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	if _, err := s.AddResource("/app", "application", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("e1", "app"); err != nil {
		t.Fatal(err)
	}
	return s
}

func histResult() *core.PerformanceResult {
	return &core.PerformanceResult{
		Execution: "e1", Metric: "cpu_inclusive", Units: "units/second",
		Tool:     "Paradyn",
		Contexts: []core.Context{core.NewContext("/app")},
	}
}

func TestAddHistogramResultStoresSummaryAndBins(t *testing.T) {
	s := histStore(t)
	values := []float64{math.NaN(), 2, 4, math.NaN(), 6}
	id, err := s.AddHistogramResult(histResult(), 0.2, values)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.ResultByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Value != 4 { // mean of 2, 4, 6
		t.Errorf("summary scalar = %v, want 4", pr.Value)
	}
	bw, bins, ok, err := s.HistogramOf(id)
	if err != nil || !ok {
		t.Fatalf("HistogramOf: ok=%v err=%v", ok, err)
	}
	if bw != 0.2 || len(bins) != 5 {
		t.Errorf("bw=%v bins=%v", bw, bins)
	}
	if !math.IsNaN(bins[0]) || bins[2] != 4 {
		t.Errorf("bins = %v", bins)
	}
	if s.HistogramCount() != 1 {
		t.Errorf("HistogramCount = %d", s.HistogramCount())
	}
}

func TestHistogramOfScalarResult(t *testing.T) {
	s := histStore(t)
	id := addResult(t, s, "e1", "plain", 1, "/app")
	_, _, ok, err := s.HistogramOf(id)
	if err != nil || ok {
		t.Errorf("scalar result reported as histogram: ok=%v err=%v", ok, err)
	}
}

func TestAddHistogramResultErrors(t *testing.T) {
	s := histStore(t)
	if _, err := s.AddHistogramResult(histResult(), 0, []float64{1}); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := s.AddHistogramResult(histResult(), 0.2, nil); err == nil {
		t.Error("empty histogram accepted")
	}
	if _, err := s.AddHistogramResult(histResult(), 0.2, []float64{math.NaN()}); err == nil {
		t.Error("all-nan histogram accepted")
	}
}

func TestHistogramResultQueryableByFilter(t *testing.T) {
	s := histStore(t)
	if _, err := s.AddHistogramResult(histResult(), 0.2, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fam, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Type: "application"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.CountMatchesCtx(context.Background(), core.PRFilter{Families: []core.Family{fam}})
	if err != nil || n != 1 {
		t.Errorf("matches = %d, %v", n, err)
	}
}

func TestLoadPTdfHistogramRecord(t *testing.T) {
	s := newStore(t)
	doc := `Application app
Execution e1 app
Resource /app application
PerfHistogram e1 /app(primary) Paradyn cpu 0.2 "units/second" nan,1.5,2.5
`
	stats, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 1 {
		t.Errorf("stats = %+v", stats)
	}
	ids, _ := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	pr, err := s.ResultByID(ids[0])
	if err != nil || pr.Value != 2 {
		t.Errorf("summary = %v, %v", pr, err)
	}
	_, bins, ok, err := s.HistogramOf(ids[0])
	if err != nil || !ok || len(bins) != 3 {
		t.Errorf("bins = %v ok=%v err=%v", bins, ok, err)
	}
}

func TestHistogramSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	func() {
		fe, err := openEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		s, err := Open(fe)
		if err != nil {
			t.Fatal(err)
		}
		s.AddResource("/app", "application", "")
		s.AddExecution("e1", "app")
		if _, err := s.AddHistogramResult(&core.PerformanceResult{
			Execution: "e1", Metric: "m", Tool: "t", Units: "u",
			Contexts: []core.Context{core.NewContext("/app")},
		}, 0.5, []float64{1, math.NaN(), 3}); err != nil {
			t.Fatal(err)
		}
	}()
	fe, err := openEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if s.HistogramCount() != 1 {
		t.Fatalf("histograms after reopen = %d", s.HistogramCount())
	}
	ids, _ := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	bw, bins, ok, err := s.HistogramOf(ids[0])
	if err != nil || !ok || bw != 0.5 || len(bins) != 3 || !math.IsNaN(bins[1]) {
		t.Errorf("after reopen: bw=%v bins=%v ok=%v err=%v", bw, bins, ok, err)
	}
}
