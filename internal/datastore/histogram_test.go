package datastore

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
)

func histStore(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	load(t, s, "Resource /app application", "Execution e1 app")
	return s
}

// histRec is a histogram of e1 on /app with the given bins.
func histRec(binWidth float64, values ...float64) ptdf.PerfHistogramRec {
	return ptdf.PerfHistogramRec{
		Exec: "e1", Metric: "cpu_inclusive", Units: "units/second", Tool: "Paradyn",
		Sets:     []ptdf.ResourceSet{{Names: []core.ResourceName{"/app"}, Type: core.FocusPrimary}},
		BinWidth: binWidth, Values: values,
	}
}

// histogramRows counts the result_histogram rows.
func histogramRows(s *Store) int {
	tab, _ := s.Engine().Table("result_histogram")
	return tab.Len()
}

// addHistogram commits a histogram and returns its result ID.
func addHistogram(t *testing.T, s *Store, rec ptdf.PerfHistogramRec) int64 {
	t.Helper()
	if err := commitOne(s, rec); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ExecutionResultIDs(rec.Exec)
	if err != nil {
		t.Fatal(err)
	}
	return ids[len(ids)-1]
}

func TestAddHistogramResultStoresSummaryAndBins(t *testing.T) {
	s := histStore(t)
	id := addHistogram(t, s, histRec(0.2, math.NaN(), 2, 4, math.NaN(), 6))
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
	if n := histogramRows(s); n != 1 {
		t.Errorf("result_histogram rows = %d", n)
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

// TestAddHistogramResultErrors: bins a PTdf line cannot carry, staged as
// records, fail the batch as bad input and leave nothing behind.
func TestAddHistogramResultErrors(t *testing.T) {
	s := histStore(t)
	before := s.Stats()
	for name, rec := range map[string]ptdf.PerfHistogramRec{
		"zero bin width":  histRec(0, 1),
		"empty histogram": histRec(0.2),
		"all-nan bins":    histRec(0.2, math.NaN()),
	} {
		if err := commitOne(s, rec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", name, err)
		}
	}
	if after := s.Stats(); after != before || histogramRows(s) != 0 {
		t.Errorf("refused histograms left rows: %+v, %d histograms", after, histogramRows(s))
	}
}

func TestHistogramResultQueryableByFilter(t *testing.T) {
	s := histStore(t)
	addHistogram(t, s, histRec(0.2, 1, 2, 3))
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
		load(t, s, "Resource /app application", "Execution e1 app", "PerfHistogram e1 /app(primary) t m 0.5 u 1,nan,3")
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
	if n := histogramRows(s); n != 1 {
		t.Fatalf("histograms after reopen = %d", n)
	}
	ids, _ := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	bw, bins, ok, err := s.HistogramOf(ids[0])
	if err != nil || !ok || bw != 0.5 || len(bins) != 3 || !math.IsNaN(bins[1]) {
		t.Errorf("after reopen: bw=%v bins=%v ok=%v err=%v", bw, bins, ok, err)
	}
}
