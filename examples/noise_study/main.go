// Noise study (§4.2): load SMG2000 data from two very different platforms
// — UV (benchmark output + PMAPI hardware counters + mpiP profiles) and
// BlueGene/L (raw benchmark output only) — into one store, and use the
// multi-resource-set contexts that mpiP's caller/callee breakdown
// required. Mirrors the paper's second case study.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func main() {
	ctx := context.Background()
	work, err := os.MkdirTemp("", "noise-study-*")
	check(err)
	defer os.RemoveAll(work)

	store, err := datastore.Open(reldb.NewMem())
	check(err)

	// Neither platform had previously been input into the database: add
	// descriptive data for UV and BG/L first, as the study did, one batch
	// per machine.
	for _, name := range []string{"UV", "BGL"} {
		m, err := gen.MachineByName(name)
		check(err)
		b := store.NewBatch()
		for _, rec := range m.ToPTdf(2) {
			b.Stage(rec)
		}
		_, err = b.CommitCtx(ctx)
		check(err)
		fmt.Printf("added platform %s\n", name)
	}

	// UV runs carry three data kinds; BG/L runs only the raw benchmark.
	var entries []gen.IndexEntry
	add := func(kind, machine string, count, np int) {
		for e := 0; e < count; e++ {
			execName := fmt.Sprintf("smg-%s-%03d", machine, e)
			dir := filepath.Join(work, execName)
			spec := gen.ExecSpec{
				Kind: kind, Execution: execName, App: "smg2000",
				Machine: machine, NProcs: np, Seed: int64(e + 1),
			}
			if _, err := gen.WriteExecution(dir, spec); err != nil {
				log.Fatal(err)
			}
			entries = append(entries, gen.IndexEntry{
				Execution: execName, App: "smg2000", Concurrency: "MPI",
				NProcs: np, NThreads: 1,
				BuildTime: "2005-05-01T00:00:00Z", RunTime: "2005-05-02T00:00:00Z",
				Kind: kind, Machine: machine, Dir: dir, Seed: int64(e + 1),
			})
		}
	}
	add(gen.KindSMGUV, "UV", 2, 32)
	add(gen.KindSMGBGL, "BGL", 4, 64)

	paths, err := gen.PTdfGen(entries, filepath.Join(work, "ptdf"))
	check(err)
	var total datastore.LoadStats
	for _, p := range paths {
		stats, err := store.LoadPTdfFile(p)
		check(err)
		total.Add(stats)
		fmt.Printf("loaded %s: %d results\n", filepath.Base(p), stats.Results)
	}
	st := store.Stats()
	fmt.Printf("store now holds %d executions, %d results, %d metrics, %d resources\n",
		st.Executions, st.Results, st.Metrics, st.Resources)

	// All three data kinds land in one queryable store.
	tools, err := store.Tools()
	check(err)
	fmt.Printf("tools represented: %v\n", tools)

	// The mpiP caller/callee breakdown: filter by one MPI function (a
	// "child" resource set) and see which application functions call it.
	callees, err := store.ResourcesOfType("environment/module/function")
	check(err)
	if len(callees) > 0 {
		callee := callees[0]
		fam := core.NewFamily(callee)
		tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{fam}})
		check(err)
		callers := map[core.ResourceName]bool{}
		for _, row := range tbl.Rows {
			for _, r := range row.Resources {
				tp, err := store.TypeOfResource(r)
				check(err)
				if tp == "build/module/function" {
					callers[r] = true
				}
			}
		}
		fmt.Printf("\n%s appears in %d results; called from %d distinct functions:\n",
			callee.BaseName(), len(tbl.Rows), len(callers))
		n := 0
		for c := range callers {
			fmt.Printf("  %s\n", c.BaseName())
			if n++; n >= 6 {
				break
			}
		}
	}

	// Cross-platform: SMG Solve wall time on both machines, per execution.
	appFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Type: "application"})
	check(err)
	tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{appFam}})
	check(err)
	tbl.FilterMetric("SMG Solve wall clock time")
	check(tbl.AddColumn("grid/machine", false))
	check(tbl.AddColumn("execution", false))
	tbl.SortBy("value", false)
	fmt.Printf("\nSMG Solve wall clock time across platforms:\n")
	for _, row := range tbl.Rows {
		fmt.Printf("  %-6s %-14s %8.3f s\n",
			tbl.Cell(row, "grid/machine"), tbl.Cell(row, "execution"), row.Value)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
