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
// With -remote http://host:7075 the same counts, result tables, and
// reports are answered by a running ptserved instance instead of a local
// store directory; -detail, -delete-exec, -chart, -csv, and
// -report free need direct store access and remain local-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	var families stringList
	flag.Var(&families, "family", "resource-filter spec (repeatable)")
	countOnly := flag.Bool("count", false, "print match counts only (Figure 3 live counts)")
	explain := flag.Bool("explain", false, "print the access-path plan and query-engine statistics to stderr")
	report := flag.String("report", "", "report: executions, metrics, applications, tools, stats, free")
	detail := flag.String("detail", "", "print the detail report for one execution")
	deleteExec := flag.String("delete-exec", "", "delete one execution and all data only it owns")
	var addCols stringList
	flag.Var(&addCols, "addcol", "add a free-resource column by type (repeatable)")
	var addAttrs stringList
	flag.Var(&addAttrs, "addattr", "add an attribute column: type.attribute (repeatable)")
	sortBy := flag.String("sort", "", "sort by column")
	desc := flag.Bool("desc", false, "sort descending")
	metricFilter := flag.String("metric", "", "keep only rows with this metric")
	csvOut := flag.String("csv", "", "export the table as CSV to this file")
	chartBy := flag.String("chart", "", "render an ASCII bar chart grouped by this column")
	reduce := flag.String("reduce", "avg", "chart reducer: min, max, avg, sum, count")
	limit := flag.Int("limit", 50, "maximum rows to print (0 = all)")
	stream := flag.Bool("stream", false, "with -remote: stream rows as NDJSON arrives (/v1/results?stream=1) instead of fetching the whole table")
	verbose := flag.Bool("verbose", false, "with -remote: print client instrumentation (requests, retries, backoff) to stderr")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		fmt.Fprintln(os.Stderr, "ptquery: exactly one of -db or -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	if *remote != "" {
		for flagName, set := range map[string]bool{
			"-detail": *detail != "", "-delete-exec": *deleteExec != "",
			"-chart": *chartBy != "", "-csv": *csvOut != "", "-report free": *report == "free",
		} {
			if set {
				fatal(fmt.Errorf("%s needs direct store access; use -db", flagName))
			}
		}
		runRemote(*remote, remoteQuery{
			families: families, countOnly: *countOnly, explain: *explain, report: *report,
			metric: *metricFilter, addCols: addCols, addAttrs: addAttrs,
			sortBy: *sortBy, desc: *desc, limit: *limit, stream: *stream, verbose: *verbose,
		})
		return
	}
	if *stream {
		fatal(fmt.Errorf("-stream needs -remote; local retrieval is already in-process"))
	}
	fe, err := reldb.OpenFile(*dbDir)
	if err != nil {
		fatal(err)
	}
	defer fe.Close()
	store, err := datastore.Open(fe)
	if err != nil {
		fatal(err)
	}

	if *detail != "" {
		d, err := store.ExecutionDetail(*detail)
		if err != nil {
			fatal(err)
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
		if err := store.DeleteExecution(*deleteExec); err != nil {
			fatal(err)
		}
		if err := fe.Checkpoint(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "deleted execution %s\n", *deleteExec)
		return
	}
	if *report != "" && *report != "free" {
		runReport(store, *report)
		return
	}

	sel := &query.Selection{Families: families}
	res, err := query.Resolve(context.Background(), store, sel)
	if err != nil {
		fatal(err)
	}
	printCounts(res.Counts, res.Len())
	if *explain {
		st := store.QueryEngineStats()
		fmt.Fprintf(os.Stderr, "query engine: generation %d, cache %d hits / %d misses, %d entries, %d bytes\n",
			st.Generation, st.CacheHits, st.CacheMisses, st.CacheEntries, st.CacheBytes)
		fmt.Fprint(os.Stderr, planner.Format(planner.PRFilterPlan(store, sel, res)))
	}
	if *countOnly {
		return
	}

	tbl, err := query.NewTable(context.Background(), store, res.IDs())
	if err != nil {
		fatal(err)
	}
	if *report == "free" {
		free, err := tbl.FreeResources()
		if err != nil {
			fatal(err)
		}
		fmt.Println("free resources (types whose values differ across results):")
		for _, c := range free {
			fmt.Printf("  %-40s %4d distinct  attrs: %s\n",
				c.Type, c.Distinct, strings.Join(c.Attributes, ", "))
		}
		return
	}
	if err := tbl.Refine(query.Refinement{
		Metric: *metricFilter, AddColumns: addCols, AddAttributes: addAttrs,
		SortBy: *sortBy, Descending: *desc,
	}); err != nil {
		fatal(err)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		err = tbl.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", *csvOut, len(tbl.Rows))
		return
	}
	if *chartBy != "" {
		keys, vals, err := tbl.GroupBy(*chartBy, *reduce)
		if err != nil {
			fatal(err)
		}
		printChart(keys, vals, *chartBy, *reduce)
		return
	}
	printTable(tbl, *limit)
}

// remoteQuery bundles the flags forwarded to a ptserved instance.
type remoteQuery struct {
	families  []string
	countOnly bool
	explain   bool
	report    string
	metric    string
	addCols   []string
	addAttrs  []string
	sortBy    string
	desc      bool
	limit     int
	stream    bool
	verbose   bool
}

// runRemote answers counts, result tables, and reports from a ptserved
// instance over HTTP. The client retries shed and transient failures.
func runRemote(baseURL string, q remoteQuery) {
	c := client.New(baseURL)
	ctx := context.Background()
	if q.verbose {
		// onFatal, not defer: fatal's os.Exit skips deferred calls, and the
		// retry counters matter most when a call fails.
		onFatal = func() { printClientCounters(c) }
		defer printClientCounters(c)
	}

	if q.report == "stats" {
		st, err := c.Stats(ctx)
		if err != nil {
			fatal(err)
		}
		printStats(st.Store)
		return
	}
	if q.report != "" {
		rep, err := c.Report(ctx, q.report)
		if err != nil {
			fatal(err)
		}
		for _, item := range rep.Items {
			fmt.Println(item)
		}
		return
	}

	qr, err := c.QueryWith(ctx, server.QueryRequest{Families: q.families, Explain: q.explain})
	if err != nil {
		fatal(err)
	}
	printCounts(qr.Families, qr.Matches)
	if q.explain {
		fmt.Fprintf(os.Stderr, "query engine: generation %d, cache %d hits / %d misses\n",
			qr.Generation, qr.CacheHits, qr.CacheMisses)
		fmt.Fprint(os.Stderr, planner.Format(qr.Plan))
	}
	if q.countOnly {
		return
	}

	if q.stream {
		if len(q.addCols) > 0 || len(q.addAttrs) > 0 || q.sortBy != "" {
			fatal(fmt.Errorf("-stream supports -family, -metric, and -limit only (sorting and added columns need the full result set)"))
		}
		rows := 0
		summary, err := c.ResultsStream(ctx, server.ResultsRequest{
			Families: q.families, Metric: q.metric, Limit: q.limit,
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
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "streamed %d rows\n", summary.Rows)
		return
	}
	res, err := c.Results(ctx, server.ResultsRequest{
		Families:      q.families,
		Metric:        q.metric,
		AddColumns:    q.addCols,
		AddAttributes: q.addAttrs,
		SortBy:        q.sortBy,
		Descending:    q.desc,
		Limit:         q.limit,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	if res.Total > len(res.Rows) {
		fmt.Printf("... %d more rows\n", res.Total-len(res.Rows))
	}
}

func runReport(store *datastore.Store, report string) {
	list := func(items []string, err error) {
		if err != nil {
			fatal(err)
		}
		for _, it := range items {
			fmt.Println(it)
		}
	}
	switch report {
	case "executions":
		list(store.Executions())
	case "metrics":
		list(store.Metrics())
	case "applications":
		list(store.Applications())
	case "tools":
		list(store.Tools())
	case "stats":
		printStats(store.Stats())
	default:
		fatal(fmt.Errorf("unknown report %q", report))
	}
}

// printCounts prints the Figure 3 live counts, local or remote.
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

func printTable(tbl *query.Table, limit int) {
	cols := tbl.Columns()
	fmt.Println(strings.Join(cols, "\t"))
	for i, row := range tbl.Rows {
		if limit > 0 && i >= limit {
			fmt.Printf("... %d more rows\n", len(tbl.Rows)-limit)
			break
		}
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = tbl.Cell(row, c)
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

func printChart(keys []string, vals []float64, column, reduce string) {
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	fmt.Printf("%s(value) by %s\n", reduce, column)
	for i, k := range keys {
		n := int(vals[i] / maxV * 50)
		fmt.Printf("%-20s |%s %g\n", k, strings.Repeat("#", n), vals[i])
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printClientCounters(c *client.Client) {
	st := c.Counters()
	fmt.Fprintf(os.Stderr, "ptquery: client: %d requests, %d retries, %d backoff sleeps (%s total), %d stream aborts\n",
		st.Requests, st.Retries, st.BackoffSleeps, st.BackoffTotal, st.StreamAborts)
}

// onFatal, when set, runs before fatal exits (used by -verbose to flush
// the client counters past os.Exit).
var onFatal func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptquery:", err)
	if onFatal != nil {
		onFatal()
	}
	os.Exit(1)
}
