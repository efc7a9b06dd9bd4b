// Command ptsql runs SQL SELECTs against a PerfTrack data store through
// the cost-based query planner (internal/planner). Queries see the
// virtual catalog — execution, resource, attribute, and
// performance_result tables keyed by names — plus the WHERE-only
// pseudo-columns "family" (a pr-filter spec) and "resource" on
// performance_result; anything the catalog cannot express falls back to
// the physical schema.
//
// Examples:
//
//	ptsql -db store 'SELECT metric, avg(value) FROM performance_result GROUP BY metric'
//	ptsql -db store -explain "SELECT count(*) FROM performance_result WHERE family = 'attr=clock>1000'"
//	ptsql -remote http://localhost:7075 'SELECT name, application FROM execution ORDER BY name'
//
// With -remote the statement runs on a ptserved instance via POST
// /v1/sql; -explain prints the chosen plan (with estimated vs. actual
// cardinalities) to stderr in both modes, through the same formatter
// ptquery uses. -analyze is the EXPLAIN ANALYZE form: the plan plus the
// execution profile — per-operator row counts, segment blocks scanned
// vs. zone-map-pruned, B-tree tail rows, kernel vs. merge wall time,
// per-worker row loads, and the planner's cardinality error. -naive
// disables the cost-based machinery locally, for A/B-ing plans.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	explain := flag.Bool("explain", false, "print the chosen plan with estimated vs. actual cardinalities to stderr")
	analyze := flag.Bool("analyze", false, "like -explain, plus the execution profile (rows, blocks, kernel/merge time, workers)")
	limit := flag.Int("limit", 0, "maximum rows to return (0 = all)")
	naive := flag.Bool("naive", false, "disable the cost-based planner (local only; full scans, no pushdown)")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		fmt.Fprintln(os.Stderr, "ptsql: exactly one of -db or -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	sqlText := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if sqlText == "" || sqlText == "-" {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		sqlText = strings.TrimSpace(string(raw))
	}
	if sqlText == "" {
		fatal(fmt.Errorf("no SQL given (pass the statement as arguments or on stdin)"))
	}

	if *remote != "" {
		if *naive {
			fatal(fmt.Errorf("-naive needs direct store access; use -db"))
		}
		runRemote(*remote, sqlText, *explain, *analyze, *limit)
		return
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
	p := planner.New(store)
	p.Naive = *naive
	res, plan, err := p.Query(context.Background(), sqlText)
	if err != nil {
		fatal(err)
	}
	if *limit > 0 && len(res.Rows) > *limit {
		res.Rows = res.Rows[:*limit]
	}
	fmt.Print(res.FormatTable())
	if *analyze {
		fmt.Fprint(os.Stderr, planner.Format(plan.WireAnalyze()))
	} else if *explain {
		fmt.Fprint(os.Stderr, planner.Format(plan.Wire()))
	}
}

// runRemote executes the statement on a ptserved instance via POST
// /v1/sql, rendering the rows tab-separated and the plan through the
// shared formatter.
func runRemote(baseURL, sqlText string, explain, analyze bool, limit int) {
	c := client.New(baseURL)
	resp, err := c.SQL(context.Background(), server.SQLRequest{
		SQL: sqlText, Explain: explain, Analyze: analyze, Limit: limit,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(strings.Join(resp.Columns, "\t"))
	for _, row := range resp.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = formatCell(v)
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	if resp.Truncated {
		fmt.Printf("... %d more rows\n", resp.RowCount-len(resp.Rows))
	}
	if explain || analyze {
		fmt.Fprint(os.Stderr, planner.Format(resp.Plan))
	}
}

// formatCell renders one JSON cell: null as NULL, numbers via %g so
// integers round-trip without a trailing ".0".
func formatCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case float64:
		return fmt.Sprintf("%g", x)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	}
	return fmt.Sprintf("%v", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptsql:", err)
	os.Exit(1)
}
