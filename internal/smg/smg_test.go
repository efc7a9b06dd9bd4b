package smg

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
		t.Fatalf("Parse: %v\ninput:\n%s", err, buf.String())
	}
	return rep
}

func defaultRun() Run {
	return Run{Execution: "smg-uv-001", NProcs: 64, Px: 8, Py: 4, Pz: 2,
		Nx: 35, Ny: 35, Nz: 35, Seed: 1}
}

func TestGenerateParseRoundTrip(t *testing.T) {
	rep := genReport(t, defaultRun())
	if rep.Nx != 35 || rep.Px != 8 || rep.NProcs() != 64 {
		t.Errorf("params = %+v", rep)
	}
	if len(rep.WallTimes) != 3 || len(rep.CPUTimes) != 3 {
		t.Errorf("timings = %v / %v", rep.WallTimes, rep.CPUTimes)
	}
	if rep.Iterations < 5 || rep.Iterations > 8 {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	if rep.Residual <= 0 || rep.Residual > 1e-6 {
		t.Errorf("residual = %g", rep.Residual)
	}
	// Solve dominates setup dominates interface.
	if rep.WallTimes["SMG Solve"] <= rep.WallTimes["SMG Setup"] ||
		rep.WallTimes["SMG Setup"] <= rep.WallTimes["Struct Interface"] {
		t.Errorf("phase ordering: %v", rep.WallTimes)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage\n",
		"SMG Solve:\n",                    // phase but no timings at all
		"wall clock time = 1.0 seconds\n", // timing outside phase
		"Iterations = seven\n",
		"Final Relative Residual Norm = x\n",
		"(nx, ny, nz)    = (35, 35)\n",
	}
	for _, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("Parse(%q) should fail", doc)
		}
	}
}

func TestToPTdfEightWholeExecutionValues(t *testing.T) {
	// Table 1 SMG-BG/L: 8 metrics, 8 performance results per execution.
	rep := genReport(t, defaultRun())
	recs := rep.ToPTdf("smg2000", "bgl-smg-001", "/BGLGrid/BGL")
	results := 0
	metrics := map[string]bool{}
	for _, rec := range recs {
		if pr, ok := rec.(ptdf.PerfResultRec); ok {
			results++
			metrics[pr.Metric] = true
		}
	}
	if results != 8 || len(metrics) != 8 {
		t.Errorf("results = %d, metrics = %d, want 8/8", results, len(metrics))
	}
}

func TestToPTdfLoadsAndQueries(t *testing.T) {
	rep := genReport(t, defaultRun())
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/UVGrid/UV", "grid/machine", ""); err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range rep.ToPTdf("smg2000", "smg-uv-001", "/UVGrid/UV") {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Results != 8 {
		t.Errorf("results = %d", st.Results)
	}
	// Time hierarchy resources for the phases exist.
	phase, err := s.ResourceByName("/smg-uv-001-time/SMG_Solve")
	if err != nil {
		t.Fatal(err)
	}
	if phase.Type != "time/interval" {
		t.Errorf("phase type = %q", phase.Type)
	}
	// Execution attributes recorded.
	exec, _ := s.ResourceByName("/smg-uv-001")
	if exec.Attributes["number of processes"] != "64" {
		t.Errorf("exec attrs = %v", exec.Attributes)
	}
}

func TestGenerateScalesWithProblemSize(t *testing.T) {
	small := genReport(t, Run{Execution: "s", NProcs: 8, Px: 2, Py: 2, Pz: 2,
		Nx: 35, Ny: 35, Nz: 35, Seed: 5})
	large := genReport(t, Run{Execution: "l", NProcs: 8, Px: 2, Py: 2, Pz: 2,
		Nx: 70, Ny: 70, Nz: 70, Seed: 5})
	if large.WallTimes["SMG Solve"] <= small.WallTimes["SMG Solve"] {
		t.Error("larger problems should take longer")
	}
}
