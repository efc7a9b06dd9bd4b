package server

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden wire test pins the raw JSON bytes of every v1 response
// envelope — field names, field order, indentation, api_version, and the
// error envelope included — so an accidental rename, retype, or
// reordering fails a test instead of silently breaking clients
// (DESIGN.md §7: within v1 the contract is append-only).
//
// Regenerate after an intentional, append-only change with:
//
//	go test ./internal/server/ -run TestGoldenWireEnvelopes -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// volatileWire scrubs the few legitimately nondeterministic values
// (trace timestamps and durations) so the rest of the body can be
// compared byte for byte. Request IDs are NOT scrubbed: the test pins
// them via the X-Request-Id header the server honors.
var volatileWire = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"start": "[^"]*"`), `"start": "<start>"`},
	{regexp.MustCompile(`"duration_ms": [0-9.eE+-]+`), `"duration_ms": 0`},
	{regexp.MustCompile(`"offset_ms": [0-9.eE+-]+`), `"offset_ms": 0`},
	{regexp.MustCompile(`(?m)^\s*"slow": true,\n`), ``},
	{regexp.MustCompile(`"(plan|exec|kernel|merge)_nanos": [0-9]+`), `"${1}_nanos": 0`},
}

func scrubVolatile(body string) string {
	for _, v := range volatileWire {
		body = v.re.ReplaceAllString(body, v.repl)
	}
	return body
}

// goldenDoc is like ptdfDoc but with a per-tag nprocs value so the
// diagnose envelope carries a real discriminating predicate.
func goldenDoc(tag string, nprocs, results int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Application app-%s\n", tag)
	fmt.Fprintf(&b, "Execution exec-%s app-%s\n", tag, tag)
	fmt.Fprintf(&b, "Resource /app-%s application\n", tag)
	fmt.Fprintf(&b, "Resource /exec-%s execution exec-%s\n", tag, tag)
	fmt.Fprintf(&b, "ResourceAttribute /exec-%s nprocs %d string\n", tag, nprocs)
	for i := 0; i < results; i++ {
		fmt.Fprintf(&b, "PerfResult exec-%s /app-%s,/exec-%s(primary) ptool \"wall time\" %d.5 seconds\n",
			tag, tag, tag, (nprocs/8)*(i+1))
	}
	return b.String()
}

// pairedDoc is two executions of one application that share portable
// context — build functions and a time phase aligned by base name — so a
// comparison pairs results: three time-like pairs with distinct positive
// deltas (one cell holding two of A's values), a byte count that fell,
// and one unpaired function on each side.
func pairedDoc() string {
	var b strings.Builder
	b.WriteString("Application app-pair\n")
	b.WriteString("Resource /app-pair application\n")
	for _, f := range []string{"f0", "f1", "f2", "onlya", "onlyb"} {
		fmt.Fprintf(&b, "Resource /pairbuild/m.c/%s build/module/function\n", f)
	}
	for _, e := range []struct {
		exec   string
		nprocs int
		values []string // "function metric value units"
	}{
		{"pair-a", 8, []string{
			"f0 \"wall time\" 10.5 seconds", "f0 \"wall time\" 11.5 seconds", "f1 \"wall time\" 20.25 seconds",
			"f2 \"wall time\" 30.125 seconds", "f0 \"bytes sent\" 2048 bytes", "onlya \"wall time\" 7 seconds",
		}},
		{"pair-b", 16, []string{
			"f0 \"wall time\" 15 seconds", "f1 \"wall time\" 21.25 seconds", "f2 \"wall time\" 32.125 seconds",
			"f0 \"bytes sent\" 1024 bytes", "onlyb \"wall time\" 3 seconds",
		}},
	} {
		fmt.Fprintf(&b, "Execution %s app-pair\n", e.exec)
		fmt.Fprintf(&b, "Resource /%s execution %s\n", e.exec, e.exec)
		fmt.Fprintf(&b, "Resource /%s-wall time %s\n", e.exec, e.exec)
		fmt.Fprintf(&b, "Resource /%s-wall/solve time/interval %s\n", e.exec, e.exec)
		fmt.Fprintf(&b, "ResourceAttribute /%s nprocs %d string\n", e.exec, e.nprocs)
		for _, v := range e.values {
			fn, rest, _ := strings.Cut(v, " ")
			fmt.Fprintf(&b, "PerfResult %s /app-pair,/pairbuild/m.c/%s,/%s,/%s-wall/solve(primary) ptool %s\n",
				e.exec, fn, e.exec, e.exec, rest)
		}
	}
	return b.String()
}

// goldenStep is one request of a golden sequence.
type goldenStep struct {
	golden string // "" = setup only
	method string
	path   string
	body   string
	status int
}

func TestGoldenWireEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Every request in this fixed sequence pins its request ID, so error
	// envelopes and trace lookups are byte-deterministic. Steps with a
	// golden name snapshot their raw response body.
	steps := []goldenStep{
		{"load", "POST", "/v1/load", goldenDoc("ga", 8, 3), 200},
		{"", "POST", "/v1/load", goldenDoc("gb", 16, 3), 200},
		{"health", "GET", "/healthz", "", 200},
		{"query", "POST", "/v1/query", `{"families": ["type=application"], "explain": true}`, 200},
		{"results", "POST", "/v1/results", `{"select": {"families": ["type=application"]}, "sort_by": "value", "descending": true, "limit": 3}`, 200},
		{"sql", "POST", "/v1/sql", `{"sql": "SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric", "explain": true}`, 200},
		{"compare", "GET", "/v1/compare?a=exec-ga&b=exec-gb", "", 200},
		{"diagnose", "POST", "/v1/diagnose", `{"exec_a": "exec-ga", "exec_b": "exec-gb", "top": 3}`, 200},
		{"attributes", "GET", "/v1/attributes?limit=1", "", 200},
		{"report", "GET", "/v1/reports/executions", "", 200},
		{"stats", "GET", "/v1/stats", "", 200},
		{"sql_analyze", "POST", "/v1/sql", `{"sql": "SELECT metric, count(*) FROM performance_result GROUP BY metric", "analyze": true}`, 200},
		{"error_notfound", "GET", "/v1/compare?a=nope&b=exec-gb", "", 404},
		{"error_badrequest", "POST", "/v1/sql", `{"sql": "SELECT 1", "bogus": true}`, 400},
		{"traces", "GET", "/v1/debug/traces?limit=2", "", 200},
		{"trace", "GET", "/v1/debug/traces/req-query", "", 200},
		{"queries", "GET", "/v1/debug/queries?limit=5", "", 200},
		{"selfdiagnose", "GET", "/v1/debug/selfdiagnose", "", 200},
	}
	runGolden(t, ts.URL, steps)

	// A store of its own whose two executions pair: the comparison and
	// a one-to-one diagnosis pin the aligner's pairs and the ranking.
	_, paired := newTestServer(t, nil)
	runGolden(t, paired.URL, []goldenStep{
		{"", "POST", "/v1/load", pairedDoc(), 200},
		{"compare_paired", "GET", "/v1/compare?a=pair-a&b=pair-b", "", 200},
		{"compare_paired_metric", "GET", "/v1/compare?a=pair-a&b=pair-b&metric=wall%20time", "", 200},
		{"diagnose_paired", "POST", "/v1/diagnose", `{"exec_a": "pair-a", "exec_b": "pair-b"}`, 200},
	})
}

// runGolden sends steps in order to the server at url and compares each
// named step's scrubbed body with its fixture.
func runGolden(t *testing.T, url string, steps []goldenStep) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, step := range steps {
		name := step.golden
		if name == "" {
			name = fmt.Sprintf("setup-%d", i)
		}
		req, err := http.NewRequest(step.method, url+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "req-"+name)
		if step.method == "POST" {
			ct := "application/json"
			if strings.HasPrefix(step.path, "/v1/load") {
				ct = "text/plain"
			}
			req.Header.Set("Content-Type", ct)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != step.status {
			t.Fatalf("%s %s: status %d, want %d: %s", step.method, step.path, r.StatusCode, step.status, raw)
		}
		if step.golden == "" {
			continue
		}
		got := scrubVolatile(string(raw))
		if !strings.Contains(got, `"api_version": "v1"`) {
			t.Errorf("%s: response without api_version:\n%s", step.golden, got)
		}
		path := filepath.Join(dir, step.golden+".json")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", step.golden, err)
		}
		if got != string(want) {
			t.Errorf("%s: wire envelope drifted from %s (run with -update if the change is intentional, append-only, and documented):\n--- got ---\n%s\n--- want ---\n%s",
				step.golden, path, got, want)
		}
	}
}

// TestGoldenStability replays the golden sequence on a second identical
// server and store; byte-identical fixtures prove the envelopes carry no
// hidden nondeterminism (map ordering, pointers, timestamps).
func TestGoldenStability(t *testing.T) {
	run := func() map[string]string {
		_, ts := newTestServer(t, nil)
		out := map[string]string{}
		post := func(name, path, body string) {
			req, _ := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
			req.Header.Set("X-Request-Id", "req-"+name)
			req.Header.Set("Content-Type", "application/json")
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(r.Body)
			r.Body.Close()
			out[name] = scrubVolatile(string(raw))
		}
		loadDoc(t, ts.URL, goldenDoc("ga", 8, 3))
		loadDoc(t, ts.URL, goldenDoc("gb", 16, 3))
		post("query", "/v1/query", `{"families": ["type=application"], "explain": true}`)
		post("sql", "/v1/sql", `{"sql": "SELECT execution, avg(value) FROM performance_result GROUP BY execution", "explain": true}`)
		post("diagnose", "/v1/diagnose", `{"exec_a": "exec-ga", "exec_b": "exec-gb"}`)
		return out
	}
	a, b := run(), run()
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: two identical runs produced different bytes:\n%s\nvs\n%s", name, a[name], b[name])
		}
	}
}
