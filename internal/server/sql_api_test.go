package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/query"
	"perftrack/internal/shell"
	"perftrack/internal/sqldb"
)

// seedTwoExecServer loads two small PTdf documents (tags a and b), so
// the store holds two applications, two executions with attributes, and
// five results each.
func seedTwoExecServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("a", 5))
	loadDoc(t, ts.URL, ptdfDoc("b", 5))
	return ts
}

func TestSQLEndpoint(t *testing.T) {
	ts := seedTwoExecServer(t)

	var resp SQLResponse
	code, raw := postJSON(t, ts.URL+"/v1/sql", SQLRequest{
		SQL:     "SELECT execution, count(*), avg(value) FROM performance_result GROUP BY execution ORDER BY execution",
		Explain: true,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.APIVersion != APIVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	if len(resp.Rows) != 2 || resp.RowCount != 2 {
		t.Fatalf("rows = %d (count %d), want 2:\n%s", len(resp.Rows), resp.RowCount, raw)
	}
	if got := resp.Rows[0][0]; got != "exec-a" {
		t.Errorf("first group = %v, want exec-a", got)
	}
	if got := resp.Rows[0][1]; got != float64(5) {
		t.Errorf("count(*) = %v (%T), want 5", got, got)
	}
	if resp.Plan == nil || resp.Plan.Strategy == "" {
		t.Fatalf("explain did not attach a plan:\n%s", raw)
	}
	if resp.Plan.ActualRows != 10 {
		t.Errorf("plan actual_rows = %d, want 10", resp.Plan.ActualRows)
	}

	// Without explain the plan stays off the wire.
	code, raw = postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: "SELECT count(*) FROM performance_result"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if strings.Contains(raw, `"plan"`) {
		t.Errorf("plan leaked without explain:\n%s", raw)
	}

	// Limit truncates and says so.
	code, _ = postJSON(t, ts.URL+"/v1/sql", SQLRequest{
		SQL: "SELECT id FROM performance_result ORDER BY id", Limit: 3,
	}, &resp)
	if code != http.StatusOK || len(resp.Rows) != 3 || !resp.Truncated || resp.RowCount != 10 {
		t.Fatalf("limit: status %d rows %d truncated %v count %d, want 200/3/true/10",
			code, len(resp.Rows), resp.Truncated, resp.RowCount)
	}
}

func TestSQLEndpointErrors(t *testing.T) {
	ts := seedTwoExecServer(t)
	for name, body := range map[string]string{
		"empty sql":      `{"sql": ""}`,
		"parse error":    `{"sql": "SELEC nope"}`,
		"non-select":     `{"sql": "CREATE TABLE x (id INTEGER PRIMARY KEY)"}`,
		"bad pseudo":     `{"sql": "SELECT family FROM performance_result"}`,
		"unknown field":  `{"sql": "SELECT 1", "nope": true}`,
		"negative limit": `{"sql": "SELECT 1", "limit": -1}`,
	} {
		r, err := http.Post(ts.URL+"/v1/sql", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, r.StatusCode, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.APIVersion != APIVersion || er.Error == "" {
			t.Errorf("%s: malformed error envelope: %s", name, raw)
		}
	}
}

func TestSQLStream(t *testing.T) {
	ts := seedTwoExecServer(t)
	body, _ := json.Marshal(SQLRequest{
		SQL: "SELECT id, metric, value FROM performance_result ORDER BY id", Explain: true,
	})
	r, err := http.Post(ts.URL+"/v1/sql?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var (
		rows    int
		sawCols bool
		summary *SQLStreamLine
	)
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		var line SQLStreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decode line %q: %v", sc.Text(), err)
		}
		if line.APIVersion != APIVersion {
			t.Fatalf("line without api_version: %s", sc.Text())
		}
		switch {
		case line.Error != "":
			t.Fatalf("mid-stream error: %s", line.Error)
		case line.Done:
			l := line
			summary = &l
		case line.Columns != nil:
			sawCols = true
			if want := []string{"id", "metric", "value"}; fmt.Sprint(line.Columns) != fmt.Sprint(want) {
				t.Fatalf("columns = %v, want %v", line.Columns, want)
			}
		case line.Row != nil:
			rows++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawCols || rows != 10 || summary == nil || summary.Rows != 10 {
		t.Fatalf("stream: cols %v rows %d summary %+v", sawCols, rows, summary)
	}
	if summary.Plan == nil || summary.Plan.Strategy == "" {
		t.Fatalf("summary line missing plan: %+v", summary)
	}
}

// TestSelectionSameOnEveryRoute evaluates one table of selections through
// every spelling the service has for one — /v1/query, buffered
// /v1/results, /v1/results?stream=1, the family/execution columns of
// /v1/sql, and query.Resolve in-process — and asserts one answer: the
// same count on success, the same status on failure. The buffered route
// must also materialize exactly the selection, not the families' matches
// filtered afterwards.
func TestSelectionSameOnEveryRoute(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("a", 5))
	loadDoc(t, ts.URL, ptdfDoc("b", 5))

	cases := []struct {
		name   string
		legacy []string // top-level "families", the pre-Selection spelling
		sel    *Selection
		status int
		want   int
	}{
		{name: "everything", status: 200, want: 10},
		{name: "families only", sel: &Selection{Families: []string{"type=application"}}, status: 200, want: 10},
		{name: "legacy families only", legacy: []string{"type=application"}, status: 200, want: 10},
		{name: "execution only", sel: &Selection{Execution: "exec-a"}, status: 200, want: 5},
		{name: "both", sel: &Selection{Execution: "exec-b", Families: []string{"name=/app-b"}}, status: 200, want: 5},
		{name: "both, disjoint", sel: &Selection{Execution: "exec-a", Families: []string{"name=/app-b"}}, status: 200, want: 0},
		{name: "legacy families, selected execution", legacy: []string{"type=application"}, sel: &Selection{Execution: "exec-a"}, status: 200, want: 5},
		{name: "legacy and selected families", legacy: []string{"type=application"}, sel: &Selection{Families: []string{"name=/exec-b"}}, status: 200, want: 5},
		{name: "two executions", sel: &Selection{Executions: []string{"exec-b", "exec-a"}}, status: 200, want: 10},
		{name: "duplicate and empty execution names", sel: &Selection{Execution: "exec-a", Executions: []string{"", "exec-a"}}, status: 200, want: 5},
		{name: "unknown execution", sel: &Selection{Execution: "nope"}, status: 404},
		{name: "unknown execution beside families", sel: &Selection{Executions: []string{"exec-a", "nope"}, Families: []string{"type=application"}}, status: 404},
		{name: "malformed spec", sel: &Selection{Families: []string{"bogus"}}, status: 400},
		{name: "malformed legacy spec", legacy: []string{"rel=sideways"}, sel: &Selection{Execution: "exec-a"}, status: 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var qr QueryResponse
			if code, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: tc.legacy, Select: tc.sel}, &qr); code != tc.status {
				t.Errorf("/v1/query: status %d, want %d: %s", code, tc.status, raw)
			}
			read := srv.store.Telemetry().ResultsRead
			var rr ResultsResponse
			code, raw := postJSON(t, ts.URL+"/v1/results", ResultsRequest{Families: tc.legacy, Select: tc.sel}, &rr)
			if code != tc.status {
				t.Errorf("/v1/results: status %d, want %d: %s", code, tc.status, raw)
			}
			if got := int(srv.store.Telemetry().ResultsRead - read); got != tc.want {
				t.Errorf("/v1/results materialized %d results for a selection of %d", got, tc.want)
			}
			code, lines := streamResults(t, ts.URL, ResultsRequest{Families: tc.legacy, Select: tc.sel})
			if code != tc.status {
				t.Errorf("/v1/results?stream=1: status %d, want %d", code, tc.status)
			}

			sel := tc.sel.WithFamilies(tc.legacy)
			res, err := query.Resolve(context.Background(), srv.store, sel)
			if got := statusOf(err, 200); got != tc.status {
				t.Errorf("query.Resolve: %v (status %d), want status %d", err, got, tc.status)
			}
			if tc.status == 404 {
				return // SQL has no unknown execution, only one that matches nothing
			}
			var where []string
			for _, f := range sel.Families {
				where = append(where, "family = '"+f+"'")
			}
			if execs := sel.ExecutionList(); len(execs) > 0 {
				where = append(where, "execution IN ('"+strings.Join(execs, "', '")+"')")
			}
			sqlText := "SELECT count(*) FROM performance_result"
			if len(where) > 0 {
				sqlText += " WHERE " + strings.Join(where, " AND ")
			}
			var sr SQLResponse
			if code, raw := postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: sqlText}, &sr); code != tc.status {
				t.Errorf("%s: status %d, want %d: %s", sqlText, code, tc.status, raw)
			}
			if tc.status != 200 {
				return
			}
			if len(qr.Families) != len(sel.Families) || len(res.Counts) != len(sel.Families) {
				t.Errorf("per-family counts: /v1/query %d, query.Resolve %d, want %d",
					len(qr.Families), len(res.Counts), len(sel.Families))
			}
			for route, got := range map[string]int{
				"/v1/query matches":          qr.Matches,
				"/v1/results total":          rr.Total,
				"/v1/results rows":           len(rr.Rows),
				"/v1/results?stream=1 total": lines[0].Total,
				"/v1/results?stream=1 rows":  lines[len(lines)-1].Rows,
				"query.Resolve IDs":          res.Len(),
				sqlText:                      int(sr.Rows[0][0].(float64)),
			} {
				if got != tc.want {
					t.Errorf("%s = %d, want %d", route, got, tc.want)
				}
			}
		})
	}
}

// TestSQLSameOnEveryDoor runs one table of statements through every door
// SQL text can arrive by — planner.Query planned and naive, POST /v1/sql
// buffered and streamed, and the shell's sql command — and asserts one
// answer: the same columns and the same cells. It covers both sources
// the one executor reads: the virtual catalog and, for statements the
// catalog cannot express, the physical tables.
func TestSQLSameOnEveryDoor(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("a", 5))
	loadDoc(t, ts.URL, ptdfDoc("b", 5))

	// wire is a result as JSON carries it, the form every door can be
	// brought to.
	wire := func(res *sqldb.Result) ([]string, [][]any) {
		raw, err := json.Marshal(NewSQLResponse(res, &planner.Plan{}, SQLRequest{}))
		if err != nil {
			t.Fatal(err)
		}
		var resp SQLResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Columns, resp.Rows
	}
	for name, stmt := range map[string]string{
		"star over a virtual table": "SELECT * FROM performance_result LIMIT 3",
		"grouped aggregate":         "SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric",
		"family pseudo-column":      "SELECT execution, value FROM performance_result WHERE family = 'name=/app-a' ORDER BY id",
		"physical columns":          "SELECT id, name FROM execution",
		"three-way physical join": "SELECT e.name, m.name, pr.value FROM performance_result pr " +
			"JOIN execution e ON pr.execution_id = e.id JOIN metric m ON pr.metric_id = m.id ORDER BY pr.id",
		"float literal against an integer key": "SELECT name FROM execution WHERE id = 1.0",
	} {
		t.Run(name, func(t *testing.T) {
			planned, _, err := planner.New(srv.store).Query(context.Background(), stmt)
			if err != nil {
				t.Fatal(err)
			}
			if len(planned.Rows) == 0 {
				t.Fatal("statement matched nothing; the comparison would be empty")
			}
			wantCols, wantRows := wire(planned)
			check := func(door string, cols []string, rows [][]any) {
				t.Helper()
				if !reflect.DeepEqual(cols, wantCols) {
					t.Errorf("%s: columns %v, planner.Query says %v", door, cols, wantCols)
				}
				if !reflect.DeepEqual(rows, wantRows) {
					t.Errorf("%s: rows %v, planner.Query says %v", door, rows, wantRows)
				}
			}

			naive := planner.New(srv.store)
			naive.Naive = true
			res, _, err := naive.Query(context.Background(), stmt)
			if err != nil {
				t.Fatal(err)
			}
			naiveCols, naiveRows := wire(res)
			check("planner.Query naive", naiveCols, naiveRows)

			var sr SQLResponse
			if code, raw := postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: stmt}, &sr); code != http.StatusOK {
				t.Fatalf("/v1/sql: status %d: %s", code, raw)
			}
			check("/v1/sql", sr.Columns, sr.Rows)

			body, _ := json.Marshal(SQLRequest{SQL: stmt})
			r, err := http.Post(ts.URL+"/v1/sql?stream=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			var streamCols []string
			var streamRows [][]any
			sc := bufio.NewScanner(r.Body)
			for sc.Scan() {
				var line SQLStreamLine
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("decode line %q: %v", sc.Text(), err)
				}
				switch {
				case line.Columns != nil:
					streamCols = line.Columns
				case line.Row != nil:
					streamRows = append(streamRows, line.Row)
				}
			}
			check("/v1/sql?stream=1", streamCols, streamRows)

			var out bytes.Buffer
			sh := shell.New(srv.store, &out)
			if err := sh.Run(strings.NewReader("sql "+stmt+"\n"), false); err != nil {
				t.Fatal(err)
			}
			if got, want := out.String(), planned.FormatTable(); got != want {
				t.Errorf("shell sql prints\n%s\nplanner.Query says\n%s", got, want)
			}
		})
	}
}

// TestNonSelectIsBadSpec pins the language as read-only on every door a
// statement can reach: DML and DDL are ErrBadSpec (a 400 with the v1
// envelope over HTTP) and leave the store exactly as it was.
func TestNonSelectIsBadSpec(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("a", 5))
	gen, stats := srv.store.Generation(), srv.store.Stats()

	for _, stmt := range []string{
		"INSERT INTO metric (id, name) VALUES (99, 'injected')",
		"UPDATE performance_result SET value = 0",
		"DELETE FROM performance_result",
		"CREATE TABLE x (id INTEGER PRIMARY KEY)",
		"DROP TABLE performance_result",
	} {
		if _, _, err := planner.New(srv.store).Query(context.Background(), stmt); !errors.Is(err, datastore.ErrBadSpec) {
			t.Errorf("planner.Query(%q): %v, want ErrBadSpec", stmt, err)
		}
		code, raw := postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: stmt}, nil)
		var er ErrorResponse
		if err := json.Unmarshal([]byte(raw), &er); code != http.StatusBadRequest ||
			err != nil || er.APIVersion != APIVersion || er.Error == "" {
			t.Errorf("/v1/sql %q: status %d, body %s; want a 400 v1 error envelope", stmt, code, raw)
		}
	}
	if got := srv.store.Generation(); got != gen {
		t.Errorf("generation moved %d -> %d", gen, got)
	}
	if got := srv.store.Stats(); got != stats {
		t.Errorf("store changed: %+v -> %+v", stats, got)
	}
}

// TestSQLDifferentialWithPRFilter retrieves the same family through
// /v1/results and through /v1/sql and asserts identical rows — the
// server-level counterpart of the planner's fuzz oracle.
func TestSQLDifferentialWithPRFilter(t *testing.T) {
	ts := seedTwoExecServer(t)

	// Row-level: the same family through /v1/results and through SQL must
	// yield the same (execution, metric, value) rows.
	var rr ResultsResponse
	code, raw := postJSON(t, ts.URL+"/v1/results", ResultsRequest{
		Select: &Selection{Families: []string{"name=/app-a"}},
	}, &rr)
	if code != http.StatusOK {
		t.Fatalf("results: status %d: %s", code, raw)
	}
	var sr SQLResponse
	code, raw = postJSON(t, ts.URL+"/v1/sql", SQLRequest{
		SQL: "SELECT execution, metric, value FROM performance_result WHERE family = 'name=/app-a' ORDER BY id",
	}, &sr)
	if code != http.StatusOK {
		t.Fatalf("sql: status %d: %s", code, raw)
	}
	if len(sr.Rows) != len(rr.Rows) {
		t.Fatalf("sql %d rows, results %d rows", len(sr.Rows), len(rr.Rows))
	}
	for i := range sr.Rows {
		sqlRow := fmt.Sprintf("%v|%v|%g", sr.Rows[i][0], sr.Rows[i][1], sr.Rows[i][2].(float64))
		resRow := fmt.Sprintf("%s|%s|%s", rr.Rows[i][0], rr.Rows[i][1], rr.Rows[i][2])
		if sqlRow != resRow {
			t.Errorf("row %d: sql %q vs results %q", i, sqlRow, resRow)
		}
	}
}

// TestUnifiedSelectionWireCompat proves the old field spellings and the
// unified select spec decode to the same evaluation, byte for byte where
// the responses are deterministic.
func TestUnifiedSelectionWireCompat(t *testing.T) {
	ts := seedTwoExecServer(t)

	// /v1/query: top-level families vs select.families.
	var legacy, unified QueryResponse
	if code, raw := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Families: []string{"type=application"}}, &legacy); code != 200 {
		t.Fatalf("legacy query: %d %s", code, raw)
	}
	if code, raw := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Select: &Selection{Families: []string{"type=application"}}}, &unified); code != 200 {
		t.Fatalf("unified query: %d %s", code, raw)
	}
	if legacy.Matches != unified.Matches || len(legacy.Families) != len(unified.Families) {
		t.Errorf("legacy matches %d families %d, unified matches %d families %d",
			legacy.Matches, len(legacy.Families), unified.Matches, len(unified.Families))
	}
	if legacy.Matches != 10 {
		t.Errorf("matches = %d, want 10", legacy.Matches)
	}

	// Execution restriction narrows the count.
	var restricted QueryResponse
	postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Families: []string{"type=application"},
		Select:   &Selection{Execution: "exec-a"},
	}, &restricted)
	if restricted.Matches != 5 {
		t.Errorf("restricted matches = %d, want 5", restricted.Matches)
	}
	// An unknown execution is a 404, like everywhere else on the surface.
	if code, _ := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Select: &Selection{Execution: "nope"}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown execution: status %d, want 404", code)
	}

	// /v1/results: same rows through both spellings.
	var lr, ur ResultsResponse
	postJSON(t, ts.URL+"/v1/results", ResultsRequest{Families: []string{"name=/app-a"}}, &lr)
	postJSON(t, ts.URL+"/v1/results", ResultsRequest{Select: &Selection{Families: []string{"name=/app-a"}}}, &ur)
	if fmt.Sprint(lr.Rows) != fmt.Sprint(ur.Rows) || lr.Total != ur.Total {
		t.Errorf("results diverge between spellings: legacy %d rows, unified %d rows", len(lr.Rows), len(ur.Rows))
	}

	// /v1/diagnose: a/b selections vs the flat exec lists.
	flat := map[string]any{"exec_a": "exec-a", "exec_b": "exec-b", "top": 3}
	sel := map[string]any{"a": map[string]any{"execution": "exec-a"}, "b": map[string]any{"execution": "exec-b"}, "top": 3}
	var fd, sd DiagnoseResponse
	if code, raw := postJSON(t, ts.URL+"/v1/diagnose", flat, &fd); code != 200 {
		t.Fatalf("flat diagnose: %d %s", code, raw)
	}
	if code, raw := postJSON(t, ts.URL+"/v1/diagnose", sel, &sd); code != 200 {
		t.Fatalf("selection diagnose: %d %s", code, raw)
	}
	if fmt.Sprint(fd.SideA) != fmt.Sprint(sd.SideA) || fmt.Sprint(fd.SideB) != fmt.Sprint(sd.SideB) {
		t.Errorf("diagnose sides diverge: flat %v/%v, selection %v/%v", fd.SideA, fd.SideB, sd.SideA, sd.SideB)
	}
}

func TestResultsPagination(t *testing.T) {
	ts := seedTwoExecServer(t)
	full := ResultsRequest{Families: []string{"type=application"}, SortBy: "value", Descending: true}
	var all ResultsResponse
	if code, raw := postJSON(t, ts.URL+"/v1/results", full, &all); code != 200 {
		t.Fatalf("full: %d %s", code, raw)
	}
	if len(all.Rows) != 10 || all.NextCursor != "" {
		t.Fatalf("full: %d rows, cursor %q", len(all.Rows), all.NextCursor)
	}

	// Walk in pages of 3 and reassemble.
	var paged [][]string
	req := full
	req.Limit = 3
	pages := 0
	for {
		var page ResultsResponse
		if code, raw := postJSON(t, ts.URL+"/v1/results", req, &page); code != 200 {
			t.Fatalf("page %d: %d %s", pages, code, raw)
		}
		if page.Total != 10 {
			t.Fatalf("page total = %d, want 10", page.Total)
		}
		paged = append(paged, page.Rows...)
		pages++
		if page.NextCursor == "" {
			break
		}
		if pages > 10 {
			t.Fatal("cursor walk did not terminate")
		}
		req.Cursor = page.NextCursor
	}
	if pages != 4 {
		t.Errorf("pages = %d, want 4", pages)
	}
	if fmt.Sprint(paged) != fmt.Sprint(all.Rows) {
		t.Errorf("paged walk diverges from the full retrieval:\n%v\nvs\n%v", paged, all.Rows)
	}

	// Cursors minted before every route shared one resolver keep resuming:
	// the fingerprint covers the merged families, then the executions.
	for cursor, req := range map[string]ResultsRequest{
		"cjF8MXwyZ3N4MGppbG1pc2Nv": full,
		"cjF8MXx1YXJpZXNrNTJhdHE": {Families: []string{"type=application"}, Metric: "wall time",
			Select: &Selection{Execution: "exec-a", Families: []string{"type=execution"}}},
	} {
		req.Limit, req.Cursor = 2, cursor
		var page ResultsResponse
		if code, raw := postJSON(t, ts.URL+"/v1/results", req, &page); code != 200 || len(page.Rows) != 2 {
			t.Errorf("cursor %s: status %d, %d rows: %s", cursor, code, len(page.Rows), raw)
		}
	}

	// Bad cursors are 400s, not wrong pages.
	for name, bad := range map[string]ResultsRequest{
		"garbage":       {Families: full.Families, Limit: 3, Cursor: "not-base64!"},
		"without limit": {Families: full.Families, Cursor: all.NextCursor + "x"},
		"wrong request": {Families: full.Families, Metric: "other", Limit: 3, Cursor: mintResultsCursor(t, ts.URL, full)},
	} {
		if code, raw := postJSON(t, ts.URL+"/v1/results", bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, raw)
		}
	}
}

// mintResultsCursor gets a real NextCursor for the given request shape.
func mintResultsCursor(t *testing.T, baseURL string, req ResultsRequest) string {
	t.Helper()
	req.Limit = 1
	var page ResultsResponse
	if code, raw := postJSON(t, baseURL+"/v1/results", req, &page); code != 200 {
		t.Fatalf("mint cursor: %d %s", code, raw)
	}
	if page.NextCursor == "" {
		t.Fatal("mint cursor: no next_cursor")
	}
	return page.NextCursor
}

func TestAttributesPagination(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var doc strings.Builder
	doc.WriteString("Application app\nExecution exec app\nResource /app application\nResource /exec execution exec\n")
	for _, attr := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		fmt.Fprintf(&doc, "ResourceAttribute /exec %s 1 string\n", attr)
	}
	doc.WriteString("PerfResult exec /app,/exec(primary) tool \"wall time\" 1.0 seconds\n")
	loadDoc(t, ts.URL, doc.String())

	get := func(params url.Values) (int, AttributesResponse, string) {
		r, err := http.Get(ts.URL + "/v1/attributes?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		raw, _ := io.ReadAll(r.Body)
		var out AttributesResponse
		if r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("decode: %v\n%s", err, raw)
			}
		}
		return r.StatusCode, out, string(raw)
	}

	code, all, raw := get(url.Values{})
	if code != 200 || len(all.Keys) != 5 || all.NextCursor != "" {
		t.Fatalf("unpaginated: %d, %d keys, cursor %q: %s", code, len(all.Keys), all.NextCursor, raw)
	}

	var walked []string
	params := url.Values{"limit": {"2"}}
	pages := 0
	for {
		code, page, raw := get(params)
		if code != 200 {
			t.Fatalf("page %d: %d %s", pages, code, raw)
		}
		for _, k := range page.Keys {
			walked = append(walked, k.Name)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		if pages > 10 {
			t.Fatal("cursor walk did not terminate")
		}
		params.Set("cursor", page.NextCursor)
	}
	if pages != 3 {
		t.Errorf("pages = %d, want 3", pages)
	}
	var want []string
	for _, k := range all.Keys {
		want = append(want, k.Name)
	}
	if fmt.Sprint(walked) != fmt.Sprint(want) {
		t.Errorf("walk = %v, want %v", walked, want)
	}

	// Bad limit, bad cursor, and a cursor minted for another prefix.
	if code, _, _ := get(url.Values{"limit": {"0"}}); code != http.StatusBadRequest {
		t.Errorf("limit=0: status %d, want 400", code)
	}
	if code, _, _ := get(url.Values{"cursor": {"@@@"}}); code != http.StatusBadRequest {
		t.Errorf("bad cursor: status %d, want 400", code)
	}
	_, first, _ := get(url.Values{"limit": {"2"}})
	if first.NextCursor == "" {
		t.Fatal("no cursor to misuse")
	}
	if code, _, _ := get(url.Values{"prefix": {"al"}, "cursor": {first.NextCursor}}); code != http.StatusBadRequest {
		t.Errorf("prefix-mismatched cursor: status %d, want 400", code)
	}
}
