package mpip

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func genReport(t *testing.T, run Run) *Report {
	t.Helper()
	var buf bytes.Buffer
	if err := Generate(&buf, run); err != nil {
		t.Fatal(err)
	}
	rep, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return rep
}

func defaultRun() Run {
	return Run{Execution: "smg-uv-001", Command: "./smg2000 -n 35 35 35",
		NProcs: 8, Callsites: 12, Seed: 1}
}

func TestGenerateParseRoundTrip(t *testing.T) {
	rep := genReport(t, defaultRun())
	if rep.Command != "./smg2000 -n 35 35 35" || rep.Version != "2.8.2" || rep.NProcs != 8 {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Tasks) != 9 { // 8 ranks + aggregate "*"
		t.Errorf("tasks = %d", len(rep.Tasks))
	}
	if rep.Tasks[len(rep.Tasks)-1].Task != -1 {
		t.Error("aggregate row should parse as Task -1")
	}
	if len(rep.Callsites) != 12 {
		t.Errorf("callsites = %d", len(rep.Callsites))
	}
	if len(rep.SiteStats) != 12*9 {
		t.Errorf("site stats = %d, want %d", len(rep.SiteStats), 12*9)
	}
	for _, st := range rep.SiteStats {
		if st.Min > st.Mean || st.Mean > st.Max {
			t.Fatalf("stat ordering violated: %+v", st)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"@ mpiP\n",                               // no task section
		"stray text\n",                           // outside section
		"@--- MPI Time (seconds) ---\n0 1.0\n",   // short row
		"@--- MPI Time (seconds) ---\nx 1 1 1\n", // bad task
		"@--- MPI Time (seconds) ---\n0 1 1 1\n@--- Callsites: 1 ---\n1 0 f.c x main Send\n",
	}
	for _, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q...) should fail", doc[:min(len(doc), 30)])
		}
	}
}

func TestToPTdfCallerCalleeResourceSets(t *testing.T) {
	rep := genReport(t, defaultRun())
	recs := rep.ToPTdf("smg2000", "smg-uv-001", "/UVGrid/UV")
	// Every callsite result carries three resource sets: primary, parent
	// (caller), child (MPI callee).
	foundMulti := 0
	for _, rec := range recs {
		pr, ok := rec.(ptdf.PerfResultRec)
		if !ok || !strings.HasPrefix(pr.Metric, "site ") {
			continue
		}
		if len(pr.Sets) != 3 {
			t.Fatalf("callsite result has %d sets: %+v", len(pr.Sets), pr)
		}
		types := map[core.FocusType]bool{}
		for _, set := range pr.Sets {
			types[set.Type] = true
		}
		if !types[core.FocusPrimary] || !types[core.FocusParent] || !types[core.FocusChild] {
			t.Fatalf("set types = %v", types)
		}
		foundMulti++
	}
	if foundMulti == 0 {
		t.Fatal("no callsite results emitted")
	}
}

func TestToPTdfShapeMatchesTable1(t *testing.T) {
	// Table 1 SMG-UV: ~259 metrics, ~9,777 results per execution from
	// benchmark+mpiP+PMAPI combined; mpiP contributes the bulk. With 64
	// ranks and 36 callsites: 65*2 task results + 36*65*4 site results.
	rep := genReport(t, Run{Execution: "e", NProcs: 64, Callsites: 36, Seed: 2})
	recs := rep.ToPTdf("smg2000", "e", "")
	results := 0
	metrics := map[string]bool{}
	for _, rec := range recs {
		if pr, ok := rec.(ptdf.PerfResultRec); ok {
			results++
			metrics[pr.Metric] = true
		}
	}
	want := 65*2 + 36*65*4
	if results != want {
		t.Errorf("results = %d, want %d", results, want)
	}
	if len(metrics) != 2+36*4 {
		t.Errorf("metrics = %d, want %d", len(metrics), 2+36*4)
	}
}

func TestToPTdfLoadsIntoStore(t *testing.T) {
	rep := genReport(t, Run{Execution: "e", NProcs: 4, Callsites: 6, Seed: 3})
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range rep.ToPTdf("smg2000", "e", "") {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Caller/callee filters find callsite results (no granularity loss).
	callers, err := s.ResourcesOfType("build/module/function")
	if err != nil || len(callers) == 0 {
		t.Fatalf("callers = %v, %v", callers, err)
	}
	fam := core.NewFamily(callers[0])
	n, err := s.CountFamilyMatchesCtx(context.Background(), fam)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("caller family matches no results")
	}
	callees, err := s.ResourcesOfType("environment/module/function")
	if err != nil || len(callees) == 0 {
		t.Fatalf("callees = %v, %v", callees, err)
	}
	n2, err := s.CountFamilyMatchesCtx(context.Background(), core.NewFamily(callees[0]))
	if err != nil || n2 == 0 {
		t.Errorf("callee family matches = %d, %v", n2, err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
