package pmapi

import (
	"bytes"
	"context"
	"strings"
	"testing"

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
		t.Fatal(err)
	}
	return rep
}

func TestGenerateParseRoundTrip(t *testing.T) {
	rep := genReport(t, Run{Execution: "e", NProcs: 16, Seed: 1})
	if rep.Group != "pm_basic" || rep.Tasks != 16 {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Samples) != 16*len(Counters) {
		t.Errorf("samples = %d, want %d", len(rep.Samples), 16*len(Counters))
	}
	for _, s := range rep.Samples {
		if s.Value <= 0 {
			t.Fatalf("non-positive counter: %+v", s)
		}
		if s.Task < 0 || s.Task >= 16 {
			t.Fatalf("task out of range: %+v", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Tasks: 2\n",                         // no samples
		"stray\n",                            // outside table
		"Task Counter Value\n0 PM_CYC abc\n", // bad value
		"Task Counter Value\nx PM_CYC 12\n",  // bad task
		"Task Counter Value\n0 PM_CYC\n",     // short row
	}
	for _, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) should fail", doc)
		}
	}
}

func TestToPTdfPerProcessResults(t *testing.T) {
	rep := genReport(t, Run{Execution: "e", NProcs: 4, Seed: 2})
	recs := rep.ToPTdf("smg2000", "smg-uv-001", "/UVGrid/UV")
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/UVGrid/UV", "grid/machine", ""); err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	results := 0
	for _, rec := range recs {
		batch.Stage(rec)
		if _, ok := rec.(ptdf.PerfResultRec); ok {
			results++
		}
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if results != 4*len(Counters) {
		t.Errorf("results = %d", results)
	}
	// Process resources exist under the execution.
	kids, err := s.Children("/smg-uv-001")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 4 {
		t.Errorf("processes = %v", kids)
	}
	if got, err := s.Tools(); err != nil || len(got) != 1 || got[0] != "PMAPI" {
		t.Errorf("tools = %v, %v", got, err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	Generate(&a, Run{Execution: "e", NProcs: 2, Seed: 9})
	Generate(&b, Run{Execution: "e", NProcs: 2, Seed: 9})
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("generation not deterministic")
	}
}
