// Quickstart: create an in-memory PerfTrack store, load a small run
// described in PTdf, and query it with a pr-filter — the minimal
// end-to-end tour of the public workflow.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"perftrack/internal/chart"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

// linpackRun describes the environment (an application, a machine, an
// execution) and its performance results in PTdf (Figure 6): each result
// is a value, a metric, and a context, the set of resources the
// measurement covers.
const linpackRun = `Resource /linpack application
Resource /LabGrid/Hype/batch/n0/p0 grid/machine/partition/node/processor
ResourceAttribute /LabGrid/Hype vendor IBM string
Execution linpack-001 linpack
Resource /linpack-001 execution linpack-001
ResourceAttribute /linpack-001 nprocs 4 string
Resource /linpack-001/p0 execution/process linpack-001
Resource /linpack-001/p1 execution/process linpack-001
Resource /linpack-001/p2 execution/process linpack-001
Resource /linpack-001/p3 execution/process linpack-001
PerfResult linpack-001 /linpack,/LabGrid/Hype,/linpack-001/p0(primary) quickstart "wall time" 12.5 seconds
PerfResult linpack-001 /linpack,/LabGrid/Hype,/linpack-001/p1(primary) quickstart "wall time" 13.1 seconds
PerfResult linpack-001 /linpack,/LabGrid/Hype,/linpack-001/p2(primary) quickstart "wall time" 12.9 seconds
PerfResult linpack-001 /linpack,/LabGrid/Hype,/linpack-001/p3(primary) quickstart "wall time" 14.0 seconds
`

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	ctx := context.Background()
	// A store needs a storage engine: in-memory here, reldb.OpenFile for
	// durability. Opening bootstraps the Figure 1 schema and the base
	// resource types.
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return err
	}
	// A document loads as one transaction: all of it or, on a bad record,
	// none of it.
	if _, err := store.LoadPTdfCtx(ctx, strings.NewReader(linpackRun)); err != nil {
		return err
	}

	// Build a pr-filter: one family per constraint. Choosing the machine
	// includes its descendants, like the GUI's default "D" flag.
	machineFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{
		Name: "/LabGrid/Hype", Include: core.IncludeDescendants,
	})
	if err != nil {
		return err
	}
	appFam, err := store.ApplyFilterCtx(ctx, core.ResourceFilter{Type: "application"})
	if err != nil {
		return err
	}
	prf := core.PRFilter{Families: []core.Family{machineFam, appFam}}

	n, err := store.CountMatchesCtx(ctx, prf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pr-filter matches %d performance results\n", n)

	// Retrieve into a table, add a free-resource column, sort, chart.
	tbl, err := query.RetrieveCtx(ctx, store, prf)
	if err != nil {
		return err
	}
	if err := tbl.AddColumn("execution/process", false); err != nil {
		return err
	}
	tbl.SortBy("value", false)
	for _, row := range tbl.Rows {
		fmt.Fprintf(w, "  %-10s %-10s %6.2f %s\n",
			row.Metric, tbl.Cell(row, "execution/process"), row.Value, row.Units)
	}

	keys, vals, err := tbl.GroupBy("execution/process", "avg")
	if err != nil {
		return err
	}
	c := &chart.BarChart{
		Title:      "wall time by process",
		YLabel:     "seconds",
		Categories: keys,
		Series:     []chart.Series{{Name: "wall", Values: vals}},
	}
	ascii, err := c.RenderASCII(40)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, ascii)
	return nil
}
