// Quickstart: create an in-memory PerfTrack store, describe a small run,
// load performance results, and query them with a pr-filter — the minimal
// end-to-end tour of the public workflow.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"perftrack/internal/chart"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

func main() {
	ctx := context.Background()
	// A store needs a storage engine: in-memory here, reldb.OpenFile for
	// durability. Opening bootstraps the Figure 1 schema and the base
	// resource types.
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		log.Fatal(err)
	}

	// Describe the environment: an application, a machine, an execution.
	must(store.AddResource("/linpack", "application", ""))
	must(store.AddResource("/LabGrid/Hype/batch/n0/p0", "grid/machine/partition/node/processor", ""))
	check(store.SetResourceAttribute("/LabGrid/Hype", "vendor", "IBM"))
	if _, err := store.AddExecution("linpack-001", "linpack"); err != nil {
		log.Fatal(err)
	}
	must(store.AddResource("/linpack-001", "execution", "linpack-001"))
	check(store.SetResourceAttribute("/linpack-001", "nprocs", "4"))

	// Store performance results: a value, a metric, and a context (the set
	// of resources the measurement covers).
	for np, wall := range map[string]float64{"p0": 12.5, "p1": 13.1, "p2": 12.9, "p3": 14.0} {
		procRes := core.ResourceName("/linpack-001/" + np)
		must(store.AddResource(procRes, "execution/process", "linpack-001"))
		if _, err := store.AddPerfResult(&core.PerformanceResult{
			Execution: "linpack-001",
			Metric:    "wall time",
			Value:     wall,
			Units:     "seconds",
			Tool:      "quickstart",
			Contexts: []core.Context{core.NewContext(
				"/linpack", "/LabGrid/Hype", procRes)},
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Build a pr-filter: one family per constraint. Choosing the machine
	// includes its descendants, like the GUI's default "D" flag.
	machineFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{
		Name: "/LabGrid/Hype", Include: core.IncludeDescendants,
	})
	check(err)
	appFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Type: "application"})
	check(err)
	prf := core.PRFilter{Families: []core.Family{machineFam, appFam}}

	n, err := store.CountMatchesCtx(ctx, prf)
	check(err)
	fmt.Printf("pr-filter matches %d performance results\n", n)

	// Retrieve into a table, add a free-resource column, sort, chart.
	tbl, err := query.RetrieveCtx(ctx, store, prf)
	check(err)
	check(tbl.AddColumn("execution/process", false))
	tbl.SortBy("value", false)
	for _, row := range tbl.Rows {
		fmt.Printf("  %-10s %-10s %6.2f %s\n",
			row.Metric, tbl.Cell(row, "execution/process"), row.Value, row.Units)
	}

	keys, vals, err := tbl.GroupBy("execution/process", "avg")
	check(err)
	c := &chart.BarChart{
		Title:      "wall time by process",
		YLabel:     "seconds",
		Categories: keys,
		Series:     []chart.Series{{Name: "wall", Values: vals}},
	}
	ascii, err := c.RenderASCII(40)
	check(err)
	fmt.Println(ascii)
}

func must(_ int64, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
