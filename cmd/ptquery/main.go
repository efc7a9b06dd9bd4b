// Command ptquery is the scriptable query interface to a PerfTrack data
// store: it builds pr-filters from resource-filter specs, reports match
// counts (the Figure 3 live counts), retrieves results in tabular form
// (Figure 4), adds free-resource columns, sorts, exports CSV, renders bar
// charts (Figure 5), and prints simple reports. SQL is ptsql's job.
//
// Filter specs (one per -family flag) are semicolon-separated key=value
// pairs:
//
//	type=grid/machine                 select by resource type
//	name=/MCRGrid/MCR                 select by full resource name
//	base=batch                        select by base name
//	attr=clock MHz>1000               attribute predicate (= != < <= > >= ~)
//	rel=D                             relatives: N, D (default), A, or B
//
// Examples:
//
//	ptquery -db store -family 'name=/MCRGrid/MCR;rel=D' -family 'type=application' -count
//	ptquery -db store -family 'type=application' -addattr execution.nprocs -sort value -csv out.csv
//	ptquery -db store -report metrics
//
// With -remote http://host:7075 the same verbs are answered by a running
// ptserved instance; with -db the store directory is served in process
// through the same v1 API, so both print the same bytes. -detail,
// -delete-exec and -report free need direct store access and are -db only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"perftrack/internal/chart"
	"perftrack/internal/cli"
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	var families cli.StringList
	flag.Var(&families, "family", "resource-filter spec (repeatable)")
	countOnly := flag.Bool("count", false, "print match counts only (Figure 3 live counts)")
	explain := flag.Bool("explain", false, "print the access-path plan and query-engine statistics to stderr")
	report := flag.String("report", "", "report: executions, metrics, applications, tools, stats, free")
	detail := flag.String("detail", "", "print the detail report for one execution")
	deleteExec := flag.String("delete-exec", "", "delete one execution and all data only it owns")
	var addCols cli.StringList
	flag.Var(&addCols, "addcol", "add a free-resource column by type (repeatable)")
	var addAttrs cli.StringList
	flag.Var(&addAttrs, "addattr", "add an attribute column: type.attribute (repeatable)")
	sortBy := flag.String("sort", "", "sort by column")
	desc := flag.Bool("desc", false, "sort descending")
	metricFilter := flag.String("metric", "", "keep only rows with this metric")
	csvOut := flag.String("csv", "", "export the table as CSV to this file")
	chartBy := flag.String("chart", "", "render an ASCII bar chart grouped by this column")
	reduce := flag.String("reduce", "avg", "chart reducer: min, max, avg, sum, count")
	limit := flag.Int("limit", 50, "maximum rows to print (0 = all)")
	stream := flag.Bool("stream", false, "stream rows as NDJSON arrives (/v1/results?stream=1) instead of fetching the whole table")
	verbose := flag.Bool("verbose", false, "print client instrumentation (requests, retries, backoff) to stderr")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		cli.Usage("exactly one of -db or -remote is required")
	}
	t := cli.MustOpen(*dbDir, *remote)
	defer t.Close()
	if *verbose {
		t.Verbose()
	}
	if t.Store == nil {
		for flagName, set := range map[string]bool{
			"-detail": *detail != "", "-delete-exec": *deleteExec != "", "-report free": *report == "free",
		} {
			if set {
				cli.Fatal(fmt.Errorf("%s needs direct store access; use -db", flagName))
			}
		}
	}
	if *detail != "" {
		d, err := t.Store.ExecutionDetail(*detail)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("execution:   %s\napplication: %s\nresults:     %d\nresources:   %d\nmetrics:     %d\ntools:       %s\n",
			d.Name, d.Application, d.Results, d.Resources, len(d.Metrics),
			strings.Join(d.Tools, ", "))
		for _, k := range sortedKeys(d.Attributes) {
			fmt.Printf("  %s = %s\n", k, d.Attributes[k])
		}
		return
	}
	if *deleteExec != "" {
		if err := t.Store.DeleteExecution(*deleteExec); err != nil {
			cli.Fatal(err)
		}
		if err := t.DB.Checkpoint(); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "deleted execution %s\n", *deleteExec)
		return
	}

	ctx := context.Background()
	switch *report {
	case "", "free":
	case "stats":
		st, err := t.Stats(ctx)
		if err != nil {
			cli.Fatal(err)
		}
		printStats(st.Store)
		return
	default:
		rep, err := t.Report(ctx, *report)
		if err != nil {
			cli.Fatal(err)
		}
		for _, item := range rep.Items {
			fmt.Println(item)
		}
		return
	}

	qr, err := t.QueryWith(ctx, server.QueryRequest{Families: families, Explain: *explain})
	if err != nil {
		cli.Fatal(err)
	}
	printCounts(qr.Families, qr.Matches)
	if *explain {
		st, err := t.Stats(ctx)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "query engine: generation %d, cache %d hits / %d misses, %d entries, %d bytes, %d declined\n",
			qr.Generation, qr.CacheHits, qr.CacheMisses, st.Engine.CacheEntries, st.Engine.CacheBytes, st.Engine.CacheDeclined)
		fmt.Fprint(os.Stderr, planner.Format(qr.Plan))
	}
	switch {
	case *countOnly:
	case *report == "free":
		printFree(ctx, t.Store, families)
	case *stream:
		if len(addCols) > 0 || len(addAttrs) > 0 || *sortBy != "" {
			cli.Fatal(fmt.Errorf("-stream supports -family, -metric, and -limit only (sorting and added columns need the full result set)"))
		}
		rows := 0
		summary, err := t.ResultsStream(ctx, server.ResultsRequest{
			Families: families, Metric: *metricFilter, Limit: *limit,
		}, func(row server.ResultRow) {
			if rows == 0 {
				fmt.Println("execution\tmetric\tvalue\tunits\ttool\tresources")
			}
			rows++
			fmt.Printf("%s\t%s\t%g\t%s\t%s\t%s\n",
				row.Execution, row.Metric, row.Value, row.Units, row.Tool,
				strings.Join(row.Resources, ","))
		})
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "streamed %d rows\n", summary.Rows)
	default:
		req := server.ResultsRequest{
			Families: families, Metric: *metricFilter, AddColumns: addCols, AddAttributes: addAttrs,
			SortBy: *sortBy, Descending: *desc, Limit: *limit,
		}
		if *csvOut != "" || *chartBy != "" {
			req.Limit = 0
		}
		res, err := t.Results(ctx, req)
		if err != nil {
			cli.Fatal(err)
		}
		if *csvOut == "" && *chartBy == "" {
			fmt.Println(strings.Join(res.Columns, "\t"))
			for _, row := range res.Rows {
				fmt.Println(strings.Join(row, "\t"))
			}
			if res.Total > len(res.Rows) {
				fmt.Printf("... %d more rows\n", res.Total-len(res.Rows))
			}
			return
		}
		tbl, err := query.TableFromCells(res.Columns, res.Rows)
		if err != nil {
			cli.Fatal(err)
		}
		if *csvOut != "" {
			writeCSV(tbl, *csvOut)
			return
		}
		keys, vals, err := tbl.GroupBy(*chartBy, *reduce)
		if err != nil {
			cli.Fatal(err)
		}
		c := &chart.BarChart{
			Title:      fmt.Sprintf("%s(value) by %s", *reduce, *chartBy),
			Categories: keys,
			Series:     []chart.Series{{Name: *reduce, Values: vals}},
		}
		out, err := c.RenderASCII(50)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Print(out)
	}
}

// printFree lists the free resources of the selection's results.
func printFree(ctx context.Context, store *datastore.Store, families []string) {
	res, err := query.Resolve(ctx, store, &query.Selection{Families: families})
	if err != nil {
		cli.Fatal(err)
	}
	tbl, err := query.NewTable(ctx, store, res.IDs())
	if err != nil {
		cli.Fatal(err)
	}
	free, err := tbl.FreeResources()
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Println("free resources (types whose values differ across results):")
	for _, c := range free {
		fmt.Printf("  %-40s %4d distinct  attrs: %s\n",
			c.Type, c.Distinct, strings.Join(c.Attributes, ", "))
	}
}

func writeCSV(tbl *query.Table, path string) {
	f, err := os.Create(path)
	if err != nil {
		cli.Fatal(err)
	}
	err = tbl.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", path, len(tbl.Rows))
}

// printCounts prints the Figure 3 live counts.
func printCounts(fams []query.FamilyCount, total int) {
	for _, fam := range fams {
		fmt.Fprintf(os.Stderr, "family %q: %d resources, matches %d results alone\n",
			fam.Spec, fam.Resources, fam.Matches)
	}
	fmt.Fprintf(os.Stderr, "pr-filter matches %d performance results\n", total)
}

func printStats(st datastore.Stats) {
	fmt.Printf("applications: %d\nexecutions:   %d\nresources:    %d\nattributes:   %d\nresults:      %d\nmetrics:      %d\nfoci:         %d\ndata bytes:   %d\n",
		st.Applications, st.Executions, st.Resources, st.Attributes,
		st.Results, st.Metrics, st.Foci, st.DataBytes)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
