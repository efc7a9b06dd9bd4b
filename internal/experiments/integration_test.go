package experiments

// Integration test for the paper's central claim (§1): performance data
// collected by different tools, in different formats, on different
// machines can be integrated, stored, and used in a single performance
// analysis session.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/paradyn"
	"perftrack/internal/planner"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func TestSingleSessionIntegratesAllToolsAndMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("loads five datasets")
	}
	dir := t.TempDir()
	fe, err := reldb.OpenFile(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	s, err := datastore.Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	// All four machines.
	for _, m := range gen.Catalog() {
		for _, rec := range m.ToPTdf(2) {
			if err := s.LoadRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One execution of each Table 1 dataset kind...
	specs := []gen.ExecSpec{
		{Kind: gen.KindIRS, Execution: "irs-mcr-0", App: "irs", Machine: "MCR", NProcs: 16, Seed: 1},
		{Kind: gen.KindIRS, Execution: "irs-frost-0", App: "irs", Machine: "Frost", NProcs: 16, Seed: 2},
		{Kind: gen.KindSMGUV, Execution: "smg-uv-0", App: "smg2000", Machine: "UV", NProcs: 8, Seed: 3},
		{Kind: gen.KindSMGBGL, Execution: "smg-bgl-0", App: "smg2000", Machine: "BGL", NProcs: 64, Seed: 4},
	}
	for _, spec := range specs {
		sub := filepath.Join(dir, spec.Execution)
		if _, err := gen.WriteExecution(sub, spec); err != nil {
			t.Fatal(err)
		}
		recs, err := gen.ConvertExecution(sub, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := s.LoadRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// ... plus a Paradyn import (a fifth tool, different structure).
	bundle := paradyn.Synthesize(paradyn.Run{
		Execution: "irs-pd-0", NModules: 3, NFuncs: 8, NProcs: 4,
		NBins: 60, BinWidth: 0.2, NFoci: 2, NanFrac: 0.1, Seed: 5,
	})
	recs, err := bundle.ToPTdf("irs", "irs-pd-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := s.LoadRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	// Five tools, one store.
	tools, err := s.Tools()
	if err != nil {
		t.Fatal(err)
	}
	wantTools := map[string]bool{"IRS": true, "SMG2000": true, "mpiP": true,
		"PMAPI": true, "Paradyn": true}
	for _, tool := range tools {
		delete(wantTools, tool)
	}
	if len(wantTools) != 0 {
		t.Errorf("missing tools %v in %v", wantTools, tools)
	}

	// Two applications, five executions.
	if apps, err := s.Applications(); err != nil || len(apps) != 2 {
		t.Errorf("applications = %v, %v", apps, err)
	}
	if execs, err := s.Executions(); err != nil || len(execs) != 5 {
		t.Errorf("executions = %v, %v", execs, err)
	}

	// A single pr-filter spans tools: everything measured on the irs
	// application regardless of origin (IRS benchmark + Paradyn).
	appFam, err := s.ApplyFilter(core.ResourceFilter{Name: "/irs"})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := query.Retrieve(s, core.PRFilter{Families: []core.Family{appFam}})
	if err != nil {
		t.Fatal(err)
	}
	toolsSeen := map[string]bool{}
	for _, row := range tbl.Rows {
		toolsSeen[row.Tool] = true
	}
	if !toolsSeen["IRS"] || !toolsSeen["Paradyn"] {
		t.Errorf("cross-tool query saw tools %v", toolsSeen)
	}

	// Free-resource analysis spans machines: grid/machine is offered
	// because the results come from different platforms.
	allTbl, err := query.Retrieve(s, core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	free, err := allTbl.FreeResources()
	if err != nil {
		t.Fatal(err)
	}
	foundMachine := false
	for _, c := range free {
		if c.Type == "grid/machine" && c.Distinct >= 4 {
			foundMachine = true
		}
	}
	if !foundMachine {
		t.Errorf("free resources did not span machines: %+v", free)
	}

	// SQL over the merged store: result counts per tool.
	res, _, err := planner.New(s).Query(context.Background(), `SELECT pt.name, COUNT(*) FROM performance_result pr
		JOIN performance_tool pt ON pr.performance_tool_id = pt.id
		GROUP BY pt.name ORDER BY pt.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("per-tool groups = %d", len(res.Rows))
	}

	// Everything survives a restart.
	if err := fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	fe2, err := reldb.OpenFile(filepath.Join(dir, "db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := datastore.Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if execs, err := s2.Executions(); err != nil || len(execs) != 5 {
		t.Errorf("executions after restart = %v, %v", execs, err)
	}
	n, err := s2.CountMatches(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no results after restart")
	}
	fmt.Printf("integrated store: %d results from 5 tools on 4 machines\n", n)
}
