package irs

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func generateReport(t *testing.T, run Run) *Report {
	t.Helper()
	var buf bytes.Buffer
	if err := Generate(&buf, run); err != nil {
		t.Fatal(err)
	}
	rep, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGenerateParseRoundTrip(t *testing.T) {
	rep := generateReport(t, Run{Execution: "irs-001", NProcs: 64, Seed: 1})
	if rep.Execution != "irs-001" || rep.NProcs != 64 || rep.Version != "1.4" {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Shape: ~80 functions x 5 metrics with ~6% cells skipped.
	if got := len(rep.Rows); got < 330 || got > 400 {
		t.Errorf("rows = %d, want ~376", got)
	}
	for _, row := range rep.Rows {
		if row.Min > row.Average || row.Average > row.Max {
			t.Fatalf("ordering violated: %+v", row)
		}
		if row.Aggregate < row.Max {
			t.Fatalf("aggregate < max at 64 procs: %+v", row)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	Generate(&a, Run{Execution: "e", NProcs: 8, Seed: 7})
	Generate(&b, Run{Execution: "e", NProcs: 8, Seed: 7})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed should generate identical output")
	}
	var c bytes.Buffer
	Generate(&c, Run{Execution: "e", NProcs: 8, Seed: 8})
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different seeds should differ")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"IRS Timing Report\nExecution: e\n",    // no rows
		"IRS Timing Report\nProcesses: many\n", // bad procs
		"Function Metric A B C D\nmain CPUTime 1 2 3\n", // short row (no exec)
		"IRS Timing Report\nExecution: e\nFunction x\nmain CPUTime 1 2 3 bogus\n",
		"stray text before table\n",
	}
	for _, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) should fail", doc)
		}
	}
}

func TestToPTdfCountsMatchTable1Shape(t *testing.T) {
	rep := generateReport(t, Run{Execution: "irs-001", NProcs: 64, Seed: 2})
	recs := rep.ToPTdf("irs", "/MCRGrid/MCR")
	var results, resources int
	metrics := map[string]bool{}
	for _, rec := range recs {
		switch r := rec.(type) {
		case ptdf.PerfResultRec:
			results++
			metrics[r.Metric] = true
		case ptdf.ResourceRec:
			resources++
		}
	}
	// Table 1: ~1,514 results, 25 metrics (5 metrics x 4 stats = 20 plus
	// variation; we produce exactly 20 metric names), ~280 resources.
	if results != 4*len(rep.Rows) {
		t.Errorf("results = %d, want %d", results, 4*len(rep.Rows))
	}
	if results < 1300 || results > 1600 {
		t.Errorf("results = %d, want ~1514", results)
	}
	if len(metrics) != 20 {
		t.Errorf("distinct metrics = %d", len(metrics))
	}
	if resources < 80 {
		t.Errorf("resources = %d", resources)
	}
}

func TestToPTdfLoadsIntoStore(t *testing.T) {
	rep := generateReport(t, Run{Execution: "irs-001", NProcs: 16, Seed: 3})
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	// The machine must pre-exist (as in §4.1, machine data was already in
	// the store).
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader("Resource /MCRGrid/MCR grid/machine")); err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range rep.ToPTdf("irs", "/MCRGrid/MCR") {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Results != int64(4*len(rep.Rows)) {
		t.Errorf("stored results = %d", st.Results)
	}
	if st.Executions != 1 || st.Applications != 1 {
		t.Errorf("stats = %+v", st)
	}
	fn, err := s.ResourceByName("/irs-code/irs.c/main")
	if err != nil {
		t.Fatal(err)
	}
	if fn.Type != "build/module/function" {
		t.Errorf("function type = %q", fn.Type)
	}
}

func TestToPTdfWithoutMachine(t *testing.T) {
	rep := generateReport(t, Run{Execution: "e", NProcs: 2, Seed: 4})
	recs := rep.ToPTdf("irs", "")
	for _, rec := range recs {
		if pr, ok := rec.(ptdf.PerfResultRec); ok {
			if len(pr.Sets[0].Names) != 3 {
				t.Fatalf("context = %v", pr.Sets[0].Names)
			}
			break
		}
	}
}

func TestFunctionCount(t *testing.T) {
	if FunctionCount() != 80 {
		t.Errorf("FunctionCount = %d, want 80 (paper: ~80 functions)", FunctionCount())
	}
}
