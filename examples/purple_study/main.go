// Purple study (§4.1): collect, store, and navigate a full set of IRS
// benchmark data from two platforms — MCR (Linux) and Frost (AIX) — then
// compare the platforms function by function with the comparison
// operators. Mirrors the paper's first case study end to end: machine
// descriptions preloaded, raw benchmark files generated per execution,
// PTdf produced via the index-file workflow, loaded, then queried.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func main() {
	ctx := context.Background()
	work, err := os.MkdirTemp("", "purple-study-*")
	check(err)
	defer os.RemoveAll(work)

	store, err := datastore.Open(reldb.NewMem())
	check(err)

	// Machine descriptions were already in the store before the study,
	// each loaded as one batch.
	for _, name := range []string{"MCR", "Frost"} {
		m, err := gen.MachineByName(name)
		check(err)
		b := store.NewBatch()
		for _, rec := range m.ToPTdf(2) {
			b.Stage(rec)
		}
		_, err = b.CommitCtx(ctx)
		check(err)
	}

	// Generate raw IRS output for a few runs per platform, build the
	// PTdfGen index, convert, and load.
	var entries []gen.IndexEntry
	for _, machine := range []string{"MCR", "Frost"} {
		for e := 0; e < 3; e++ {
			execName := fmt.Sprintf("irs-%s-%03d", machine, e)
			dir := filepath.Join(work, execName)
			spec := gen.ExecSpec{
				Kind: gen.KindIRS, Execution: execName, App: "irs",
				Machine: machine, NProcs: 32, Seed: int64(e + 1),
			}
			if _, err := gen.WriteExecution(dir, spec); err != nil {
				log.Fatal(err)
			}
			entries = append(entries, gen.IndexEntry{
				Execution: execName, App: "irs", Concurrency: "MPI",
				NProcs: 32, NThreads: 1,
				BuildTime: "2005-03-01T00:00:00Z", RunTime: "2005-03-02T00:00:00Z",
				Kind: gen.KindIRS, Machine: machine, Dir: dir, Seed: int64(e + 1),
			})
		}
	}
	paths, err := gen.PTdfGen(entries, filepath.Join(work, "ptdf"))
	check(err)
	var total datastore.LoadStats
	for _, p := range paths {
		stats, err := store.LoadPTdfFile(p)
		check(err)
		total.Add(stats)
	}
	fmt.Printf("loaded %d executions: %d records, %d results, %d resources\n",
		len(paths), total.Records, total.Results, total.Resources)

	// Navigate: results for one function on Frost, with free-resource
	// columns added in a second step (the Figure 4 workflow).
	frostFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{
		Name: "/SingleMachineFrost/Frost", Include: core.IncludeDescendants,
	})
	check(err)
	fnFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Name: "/irs-code/irs.c/radsolve"})
	check(err)
	tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{frostFam, fnFam}})
	check(err)
	tbl.FilterMetric("WallTime max")
	check(tbl.AddColumn("execution", false))
	tbl.SortBy("value", true)
	fmt.Printf("\nWallTime max of radsolve on Frost (%d rows):\n", len(tbl.Rows))
	for _, row := range tbl.Rows {
		fmt.Printf("  %-14s %8.3f s\n", tbl.Cell(row, "execution"), row.Value)
	}

	// Cross-platform comparison (the reason the study ran on both).
	cmp, err := compare.ExecutionsCtx(ctx, store, "irs-Frost-000", "irs-MCR-000")
	check(err)
	sum := cmp.Summarize()
	fmt.Printf("\nFrost vs MCR: %d aligned pairs, geometric-mean ratio %.3f (MCR/Frost)\n",
		sum.Paired, sum.GeoMeanRatio)
	imps := cmp.Improvements(0.5)
	fmt.Printf("functions at least 50%% faster on MCR: %d\n", len(imps))
	for i, imp := range imps {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(imps)-5)
			break
		}
		ctxName := "?"
		for _, r := range imp.Pair.Context {
			if r.Parent() != "" && r.Parent().BaseName() == "irs.c" {
				ctxName = r.BaseName()
			}
		}
		fmt.Printf("  %-24s %-18s %6.1f%% faster\n", ctxName, imp.Pair.Metric, imp.Percent)
	}

	// Export a dataset of interest for a spreadsheet, as in the study.
	csvPath := filepath.Join(work, "frost-radsolve.csv")
	f, err := os.Create(csvPath)
	check(err)
	check(tbl.WriteCSV(f))
	check(f.Close())
	st, err := os.Stat(csvPath)
	check(err)
	fmt.Printf("\nexported %s (%d bytes) for spreadsheet analysis\n", filepath.Base(csvPath), st.Size())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
