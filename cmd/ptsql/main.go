// Command ptsql runs SQL SELECTs against a PerfTrack data store through
// the query planner (internal/planner). Queries see the
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
// Both modes run the statement through POST /v1/sql: with -remote on a
// ptserved instance, with -db on the store served in process, so a
// statement reads the same either way. -explain prints
// the chosen plan (with estimated vs. actual cardinalities) to stderr,
// through the same formatter ptquery uses. -analyze is the EXPLAIN
// ANALYZE form: the plan plus the execution profile — per-operator row
// counts, segment blocks scanned vs. zone-map-pruned, tail rows,
// kernel vs. merge wall time, per-worker row loads, and the planner's
// cardinality error. -naive disables the planner's pushdown, for A/B-ing
// plans; it runs on the -db store directly, since no route offers it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"perftrack/internal/cli"
	"perftrack/internal/planner"
	"perftrack/internal/server"
	"perftrack/internal/sqldb"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	explain := flag.Bool("explain", false, "print the chosen plan with estimated vs. actual cardinalities to stderr")
	analyze := flag.Bool("analyze", false, "like -explain, plus the execution profile (rows, blocks, kernel/merge time, workers)")
	limit := flag.Int("limit", 0, "maximum rows to return (0 = all)")
	naive := flag.Bool("naive", false, "disable the planner (local only; full scans, no pushdown)")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		cli.Usage("exactly one of -db or -remote is required")
	}
	sqlText := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if sqlText == "" || sqlText == "-" {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			cli.Fatal(err)
		}
		sqlText = strings.TrimSpace(string(raw))
	}
	if sqlText == "" {
		cli.Fatal(fmt.Errorf("no SQL given (pass the statement as arguments or on stdin)"))
	}

	t := cli.MustOpen(*dbDir, *remote)
	defer t.Close()
	req := server.SQLRequest{SQL: sqlText, Explain: *explain, Analyze: *analyze, Limit: *limit}
	var resp server.SQLResponse
	if *naive {
		if t.Store == nil {
			cli.Fatal(fmt.Errorf("-naive needs direct store access; use -db"))
		}
		p := planner.New(t.Store)
		p.Naive = true
		res, plan, err := p.Query(context.Background(), sqlText)
		if err != nil {
			cli.Fatal(err)
		}
		resp = server.NewSQLResponse(res, plan, req)
	} else {
		var err error
		if resp, err = t.SQL(context.Background(), req); err != nil {
			cli.Fatal(err)
		}
	}
	printResponse(resp)
}

// printResponse renders a /v1/sql body — served, or built by -naive — as
// an aligned table on stdout and the plan, when one was asked for, on
// stderr.
func printResponse(resp server.SQLResponse) {
	cells := make([][]string, len(resp.Rows))
	for i, row := range resp.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = cellText(v)
		}
	}
	fmt.Print(sqldb.FormatCells(resp.Columns, cells))
	if resp.Truncated {
		fmt.Printf("... %d more rows\n", resp.RowCount-len(resp.Rows))
	}
	if resp.Plan != nil {
		fmt.Fprint(os.Stderr, planner.Format(resp.Plan))
	}
}

// cellText renders one cell by value, so a number prints the same
// whether it is still an int64 or float64 or came back from JSON as a
// float64: integral values as integers, the rest in shortest form.
// (Integers beyond 2^53 stay exact only under -naive; JSON already
// rounded them.)
func cellText(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}
