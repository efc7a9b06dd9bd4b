package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

// pageDoc is one application's executions, each with procs processes ×
// funcs functions × metrics metrics, one result each whose context is
// the process and the function. Values repeat (ties), one is NaN, and
// attributes mix numbers with words, so sorts meet every comparison
// SortBy makes; process p0 has no "node" attribute.
func pageDoc(execs, procs, funcs, metrics int) string {
	var b strings.Builder
	b.WriteString("Application pgapp\nResource /pgapp application\n")
	for f := range funcs {
		fmt.Fprintf(&b, "Resource /pgbuild/m/f%d build/module/function\n", f)
	}
	metricOf := []string{`"wall time" %s seconds`, `"bytes sent" %s bytes`, `"cpu time" %s seconds`}
	compilers := []string{"-O2", "10", "n/a"}
	for e := range execs {
		exec := fmt.Sprintf("pg-%c", 'a'+e)
		fmt.Fprintf(&b, "Execution %s pgapp\n", exec)
		fmt.Fprintf(&b, "Resource /%s execution %s\n", exec, exec)
		fmt.Fprintf(&b, "ResourceAttribute /%s nprocs %d string\n", exec, 8<<(e%2))
		fmt.Fprintf(&b, "ResourceAttribute /%s compiler %s string\n", exec, compilers[e%len(compilers)])
		for p := range procs {
			fmt.Fprintf(&b, "Resource /%s/p%d execution/process %s\n", exec, p, exec)
			if p > 0 {
				fmt.Fprintf(&b, "ResourceAttribute /%s/p%d node n%d string\n", exec, p, (p*5)%3)
			}
			for f := range funcs {
				for m := range metrics {
					v := strconv.FormatFloat(float64((p*7+f*3+m+e)%5)+0.5, 'g', -1, 64)
					if e == 0 && p == 1 && f == 0 && m == 0 {
						v = "NaN"
					}
					fmt.Fprintf(&b, "PerfResult %s /pgapp,/%s/p%d,/pgbuild/m/f%d(primary) pgtool %s\n",
						exec, exec, p, f, fmt.Sprintf(metricOf[m%len(metricOf)], v))
				}
			}
		}
	}
	return b.String()
}

// pageServer serves a store loaded with pageDoc.
func pageServer(t testing.TB, execs, procs, funcs, metrics int) (*Server, *datastore.Store) {
	t.Helper()
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(srv, "POST", "/v1/load", pageDoc(execs, procs, funcs, metrics), "req-load"); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}
	return srv, store
}

// resultsOracle answers a buffered /v1/results request the way the
// handler did before a page was decided on IDs, with none of package
// query's table code: every selected result materialized, its cells
// rendered and its added columns filled by loops of its own (as the old
// AddColumn and AddAttributeColumn filled them), the metric filter and
// the sort applied to all of the rows, then the page cut out and the
// whole response encoded at once. FuzzResultsPage holds the handler to it.
func resultsOracle(t *testing.T, st *datastore.Store, req ResultsRequest) []byte {
	t.Helper()
	ctx := context.Background()
	sel := req.Select.WithFamilies(req.Families)
	res, err := query.Resolve(ctx, st, sel)
	if err != nil {
		t.Fatal(err)
	}
	results, err := st.MaterializeResultsCtx(ctx, res.IDs())
	if err != nil {
		t.Fatal(err)
	}
	type added struct {
		name, attr string
		tp         core.TypePath
		isAttr     bool
	}
	var extra []added
	addCol := func(c added) {
		for _, e := range extra {
			if e.name == c.name {
				return
			}
		}
		extra = append(extra, c)
	}
	for _, col := range req.AddColumns {
		addCol(added{name: col, tp: core.TypePath(col)})
	}
	for _, spec := range req.AddAttributes {
		i := strings.LastIndexByte(spec, '.')
		addCol(added{name: spec, tp: core.TypePath(spec[:i]), attr: spec[i+1:], isAttr: true})
	}
	var rows []map[string]string
	for _, pr := range results {
		if req.Metric != "" && pr.Metric != req.Metric {
			continue
		}
		row := map[string]string{
			"execution": pr.Execution, "metric": pr.Metric, "units": pr.Units, "tool": pr.Tool,
			"value": strconv.FormatFloat(pr.Value, 'g', -1, 64),
		}
		seen := make(map[core.ResourceName]bool)
		var resources []core.ResourceName
		for _, c := range pr.Contexts {
			for _, r := range c.Resources {
				if !seen[r] {
					seen[r] = true
					resources = append(resources, r)
				}
			}
		}
		sort.Slice(resources, func(i, j int) bool { return resources[i] < resources[j] })
		for _, c := range extra {
			for _, r := range resources {
				rt, err := st.TypeOfResource(r)
				if err != nil {
					t.Fatal(err)
				}
				if rt != c.tp {
					continue
				}
				if !c.isAttr {
					segs := strings.Split(string(r), "/")
					row[c.name] = segs[len(segs)-1]
				} else {
					rsrc, err := st.ResourceByName(r)
					if err != nil {
						t.Fatal(err)
					}
					if v, ok := rsrc.Attributes[c.attr]; ok {
						row[c.name] = v
					}
				}
				break
			}
		}
		rows = append(rows, row)
	}
	if req.SortBy != "" {
		less := func(a, b map[string]string) bool {
			va, vb := a[req.SortBy], b[req.SortBy]
			if fa, errA := strconv.ParseFloat(va, 64); errA == nil {
				if fb, errB := strconv.ParseFloat(vb, 64); errB == nil {
					return fa < fb
				}
			}
			return va < vb
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if req.Descending {
				return less(rows[j], rows[i])
			}
			return less(rows[i], rows[j])
		})
	}
	sigFields := append([]string{strconv.Itoa(len(sel.Families))}, sel.Families...)
	sigFields = append(sigFields, sel.ExecutionList()...)
	sigFields = append(sigFields, req.Metric,
		strings.Join(req.AddColumns, ","), strings.Join(req.AddAttributes, ","),
		req.SortBy, strconv.FormatBool(req.Descending))
	sig := cursorSig(sigFields...)
	total, offset := len(rows), 0
	if req.Cursor != "" {
		parts, err := decodeCursor(req.Cursor, "r1", 3)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := strconv.Atoi(parts[1])
		offset = min(off, len(rows))
	}
	rows = rows[offset:]
	next := ""
	if req.Limit > 0 && len(rows) > req.Limit {
		rows = rows[:req.Limit]
		next = encodeCursor("r1", strconv.Itoa(offset+req.Limit), sig)
	}
	cols := []string{"execution", "metric", "value", "units", "tool"}
	for _, c := range extra {
		cols = append(cols, c.name)
	}
	out := make([][]string, 0, len(rows))
	for _, row := range rows {
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = row[c]
		}
		out = append(out, cells)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ResultsResponse{
		APIVersion: APIVersion, Columns: cols, Rows: out, Total: total, NextCursor: next,
	})
	return rec.Body.Bytes()
}

var (
	pageSelections = []struct {
		families []string
		sel      *Selection
	}{
		{families: []string{"type=application"}},
		{families: []string{"name=/pg-a"}},
		{sel: &Selection{Execution: "pg-b"}},
		{families: []string{"type=application"}, sel: &Selection{Executions: []string{"pg-c", "pg-a"}}},
		{families: []string{"name=/pgbuild/m/f1;rel=N"}},
		{families: []string{"name=/pg-a", "name=/pg-b"}}, // no result is in both
	}
	pageMetrics = []string{"", "wall time", "bytes sent", "no such metric"}
	pageSorts   = []string{"", "value", "execution", "metric", "units", "tool",
		"build/module/function", "execution/process", "execution.nprocs", "execution.compiler",
		"execution/process.node", "application", "no such column"}
	pageColumns    = []string{"build/module/function", "execution/process", "execution", "application"}
	pageAttributes = []string{"execution.nprocs", "execution.compiler", "execution/process.node"}
)

// pageRequest builds a request from fuzzed choices, each taken modulo
// its list's length; colMask and attrMask pick added columns by bit.
func pageRequest(sel, metric, sortBy uint8, desc bool, colMask, attrMask, limit uint8) ResultsRequest {
	s := pageSelections[int(sel)%len(pageSelections)]
	req := ResultsRequest{
		Families: s.families, Select: s.sel,
		Metric:     pageMetrics[int(metric)%len(pageMetrics)],
		SortBy:     pageSorts[int(sortBy)%len(pageSorts)],
		Descending: desc,
		Limit:      int(limit) % 8,
	}
	for i, c := range pageColumns {
		if colMask&(1<<i) != 0 {
			req.AddColumns = append(req.AddColumns, c)
		}
	}
	for i, a := range pageAttributes {
		if attrMask&(1<<i) != 0 {
			req.AddAttributes = append(req.AddAttributes, a)
		}
	}
	return req
}

// FuzzResultsPage holds buffered /v1/results to resultsOracle: every page
// of a cursor walk to the end is byte for byte the page the old
// full-table answer cut out.
func FuzzResultsPage(f *testing.F) {
	for i := range 2 * len(pageSorts) {
		desc := i >= len(pageSorts)
		f.Add(uint8(i), uint8(i/3), uint8(i), desc, uint8(i*5), uint8(i*3), uint8(i+1))
	}
	f.Add(uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0), uint8(0))  // everything, one page
	f.Add(uint8(5), uint8(1), uint8(1), true, uint8(15), uint8(7), uint8(3))  // an empty selection
	f.Add(uint8(0), uint8(3), uint8(1), false, uint8(3), uint8(1), uint8(2))  // an unknown metric
	f.Add(uint8(3), uint8(1), uint8(10), true, uint8(15), uint8(7), uint8(5)) // a sort on an attribute
	srv, st := pageServer(f, 3, 3, 3, 3)
	f.Fuzz(func(t *testing.T, sel, metric, sortBy uint8, desc bool, colMask, attrMask, limit uint8) {
		req := pageRequest(sel, metric, sortBy, desc, colMask, attrMask, limit)
		for page := 0; ; page++ {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := serve(srv, "POST", "/v1/results", string(body), "req-page")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			if want := resultsOracle(t, st, req); rec.Body.String() != string(want) {
				t.Fatalf("%s: page %d is\n%s\nthe full-table answer's is\n%s", body, page, rec.Body, want)
			}
			var resp ResultsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.NextCursor == "" {
				return
			}
			if page > resp.Total {
				t.Fatalf("%s: the cursor walk passed %d pages", body, page)
			}
			req.Cursor = resp.NextCursor
		}
	})
}

// TestResultsPageMaterializesOnlyItsRows: a 200-row page of a 512-result
// selection materializes 200 results.
func TestResultsPageMaterializesOnlyItsRows(t *testing.T) {
	srv, st := pageServer(t, 1, 64, 1, 8)
	body := `{"families": ["type=application"], "limit": 200}`
	before := st.Telemetry().ResultsRead
	rec := serve(srv, "POST", "/v1/results", body, "req-count")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ResultsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	read := st.Telemetry().ResultsRead - before
	if len(resp.Rows) != 200 || resp.Total != 512 || read != 200 {
		t.Errorf("a page of %d rows of %d read %d results, want 200 of 512 reading 200", len(resp.Rows), resp.Total, read)
	}
}
