// Paradyn study (§4.3): incorporate data exported by the Paradyn parallel
// performance tool into an existing PerfTrack data store. Paradyn uses
// dynamic instrumentation, so its histograms may not cover the whole
// execution ('nan' bins are skipped), and its resource hierarchy includes
// types PerfTrack lacks — handled by the Figure 11 mapping plus the type
// extension interface.
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
	"perftrack/internal/paradyn"
	"perftrack/internal/ptdf"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func main() {
	ctx := context.Background()
	work, err := os.MkdirTemp("", "paradyn-study-*")
	check(err)
	defer os.RemoveAll(work)

	// An existing store: machine data and one prior IRS execution.
	store, err := datastore.Open(reldb.NewMem())
	check(err)
	m, err := gen.MachineByName("MCR")
	check(err)
	b := store.NewBatch()
	for _, rec := range m.ToPTdf(2) {
		b.Stage(rec)
	}
	_, err = b.CommitCtx(ctx)
	check(err)

	// Three Paradyn sessions of IRS on MCR, exported to disk as Paradyn
	// writes them: histogram files, index, resources, search history.
	for e := 0; e < 3; e++ {
		execName := fmt.Sprintf("irs-paradyn-%03d", e)
		dir := filepath.Join(work, execName)
		check(paradyn.GenerateBundle(dir, paradyn.Run{
			Execution: execName,
			NModules:  6, NFuncs: 20, NProcs: 4,
			NBins: 200, BinWidth: 0.2, NFoci: 3, NanFrac: 0.2,
			Seed: int64(e + 1),
		}))
		bundle, err := paradyn.LoadBundle(dir)
		check(err)
		recs, err := bundle.ToPTdf("irs", execName)
		check(err)
		// One batch per session: it loads whole or not at all.
		b := store.NewBatch()
		results := 0
		for _, rec := range recs {
			b.Stage(rec)
			if _, ok := rec.(ptdf.PerfResultRec); ok {
				results++
			}
		}
		_, err = b.CommitCtx(ctx)
		check(err)
		fmt.Printf("imported %s: %d Paradyn resources, %d histograms, %d results (nan bins skipped)\n",
			execName, len(bundle.Resources), len(bundle.Histograms), results)
	}

	st := store.Stats()
	fmt.Printf("\nstore now holds %d resources, %d results, %d metrics\n",
		st.Resources, st.Results, st.Metrics)
	fmt.Printf("type system gained: syncObject hierarchy present = %v, bin level present = %v\n",
		store.Types().Has("syncObject/type/object"), store.Types().Has("time/interval/bin"))

	// Query across the imported data: cpu_inclusive over one execution's
	// time bins, showing when instrumentation produced data.
	execFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Name: "/irs-paradyn-000", Include: core.IncludeDescendants})
	check(err)
	tbl, err := query.RetrieveCtx(ctx, store, core.PRFilter{Families: []core.Family{execFam}})
	check(err)
	tbl.FilterMetric("cpu_inclusive")
	fmt.Printf("\ncpu_inclusive results in irs-paradyn-000: %d\n", len(tbl.Rows))

	// Time bins carry start/end attributes from the histogram headers.
	bins, err := store.Descendants("/irs-paradyn-000-time")
	check(err)
	if len(bins) > 0 {
		bin, err := store.ResourceByName(bins[0])
		check(err)
		fmt.Printf("first time bin %s: start=%s end=%s seconds\n",
			bin.Name.BaseName(), bin.Attributes["start time"], bin.Attributes["end time"])
	}

	// Paradyn's machine nodes became attributes of process resources.
	procs, err := store.ResourcesOfType("execution/process")
	check(err)
	for _, p := range procs[:min(3, len(procs))] {
		res, err := store.ResourceByName(p)
		check(err)
		fmt.Printf("process %s ran on node %s\n", res.Name.BaseName(), res.Attributes["node"])
	}

	// The Performance Consultant's conclusions are recorded with the run.
	exec, err := store.ResourceByName("/irs-paradyn-000")
	check(err)
	fmt.Println("\nPerformance Consultant findings:")
	for _, k := range exec.AttributeNames() {
		if len(k) > 2 && k[:2] == "PC" {
			fmt.Printf("  %s: %s\n", k, exec.Attributes[k])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
