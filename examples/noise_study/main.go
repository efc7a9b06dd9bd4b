// Noise study (§4.2): load SMG2000 data from two very different platforms
// — UV (benchmark output + PMAPI hardware counters + mpiP profiles) and
// BlueGene/L (raw benchmark output only) — into one store, and use the
// multi-resource-set contexts that mpiP's caller/callee breakdown
// required. Mirrors the paper's second case study. Its output is the
// same on every run.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run does the study, writing its report to w.
func run(w io.Writer) error {
	ctx := context.Background()
	work, err := os.MkdirTemp("", "noise-study-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return err
	}
	defer store.Engine().Close()

	// Neither platform had previously been input into the database: add
	// descriptive data for UV and BG/L first, as the study did, one batch
	// per machine.
	for _, name := range []string{"UV", "BGL"} {
		m, err := gen.MachineByName(name)
		if err != nil {
			return err
		}
		b := store.NewBatch()
		for _, rec := range m.ToPTdf(2) {
			b.Stage(rec)
		}
		if _, err := b.CommitCtx(ctx); err != nil {
			return err
		}
		fmt.Fprintf(w, "added platform %s\n", name)
	}

	// UV runs carry three data kinds; BG/L runs only the raw benchmark.
	var entries []gen.IndexEntry
	add := func(kind, machine string, count, np int) error {
		for e := 0; e < count; e++ {
			execName := fmt.Sprintf("smg-%s-%03d", machine, e)
			dir := filepath.Join(work, execName)
			spec := gen.ExecSpec{
				Kind: kind, Execution: execName, App: "smg2000",
				Machine: machine, NProcs: np, Seed: int64(e + 1),
			}
			if _, err := gen.WriteExecution(dir, spec); err != nil {
				return err
			}
			entries = append(entries, gen.IndexEntry{
				Execution: execName, App: "smg2000", Concurrency: "MPI",
				NProcs: np, NThreads: 1,
				BuildTime: "2005-05-01T00:00:00Z", RunTime: "2005-05-02T00:00:00Z",
				Kind: kind, Machine: machine, Dir: dir, Seed: int64(e + 1),
			})
		}
		return nil
	}
	if err := add(gen.KindSMGUV, "UV", 2, 32); err != nil {
		return err
	}
	if err := add(gen.KindSMGBGL, "BGL", 4, 64); err != nil {
		return err
	}

	paths, err := gen.PTdfGen(entries, filepath.Join(work, "ptdf"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		stats, err := store.LoadPTdfFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loaded %s: %d results\n", filepath.Base(p), stats.Results)
	}
	st := store.Stats()
	fmt.Fprintf(w, "store now holds %d executions, %d results, %d metrics, %d resources\n",
		st.Executions, st.Results, st.Metrics, st.Resources)

	// All three data kinds land in one queryable store.
	tools, err := store.Tools()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tools represented: %v\n", tools)

	// The mpiP caller/callee breakdown: filter by one MPI function (a
	// "child" resource set) and see which application functions call it.
	callees, err := store.ResourcesOfType("environment/module/function")
	if err != nil {
		return err
	}
	if len(callees) > 0 {
		callee := callees[0]
		fam := core.NewFamily(callee)
		tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{fam}})
		if err != nil {
			return err
		}
		var callers []core.ResourceName
		for _, row := range tbl.Rows {
			for _, r := range row.Resources {
				tp, err := store.TypeOfResource(r)
				if err != nil {
					return err
				}
				if tp == "build/module/function" {
					callers = append(callers, r)
				}
			}
		}
		slices.Sort(callers)
		callers = slices.Compact(callers)
		fmt.Fprintf(w, "\n%s appears in %d results; called from %d distinct functions:\n",
			callee.BaseName(), len(tbl.Rows), len(callers))
		for _, c := range callers[:min(len(callers), 6)] {
			fmt.Fprintf(w, "  %s\n", c.BaseName())
		}
	}

	// Cross-platform: SMG Solve wall time on both machines, per execution.
	appFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Type: "application"})
	if err != nil {
		return err
	}
	tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{appFam}})
	if err != nil {
		return err
	}
	tbl.FilterMetric("SMG Solve wall clock time")
	for _, col := range []core.TypePath{"grid/machine", "execution"} {
		if err := tbl.AddColumn(col, false); err != nil {
			return err
		}
	}
	tbl.SortBy("value", false)
	fmt.Fprintf(w, "\nSMG Solve wall clock time across platforms:\n")
	for _, row := range tbl.Rows {
		fmt.Fprintf(w, "  %-6s %-14s %8.3f s\n",
			tbl.Cell(row, "grid/machine"), tbl.Cell(row, "execution"), row.Value)
	}
	return nil
}
