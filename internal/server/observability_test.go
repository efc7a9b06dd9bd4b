package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"perftrack/internal/obs"
)

// postSQL posts one SQLRequest and decodes the buffered response.
func postSQL(t *testing.T, baseURL string, req SQLRequest) SQLResponse {
	t.Helper()
	var resp SQLResponse
	code, raw := postJSON(t, baseURL+"/v1/sql", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("sql: status %d: %s", code, raw)
	}
	return resp
}

// TestSQLAnalyzeAttachesProfile checks the wire split on /v1/sql: plain
// explain stays profile-free, analyze attaches the execution profile
// with actuals that add up.
func TestSQLAnalyzeAttachesProfile(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("an", 6))
	q := "SELECT metric, count(*) FROM performance_result GROUP BY metric ORDER BY metric"

	plain := postSQL(t, ts.URL, SQLRequest{SQL: q, Explain: true})
	if plain.Plan == nil || plain.Plan.Profile != nil {
		t.Fatalf("explain: plan=%v, want plan without profile", plain.Plan)
	}
	an := postSQL(t, ts.URL, SQLRequest{SQL: q, Analyze: true})
	if an.Plan == nil || an.Plan.Profile == nil {
		t.Fatalf("analyze: plan=%v, want plan with profile", an.Plan)
	}
	prof := an.Plan.Profile
	if prof.RowsScanned == 0 || prof.RowsReturned == 0 {
		t.Errorf("profile actuals empty: %+v", prof)
	}
	if prof.ExecNanos <= 0 {
		t.Errorf("ExecNanos = %d, want > 0", prof.ExecNanos)
	}
}

// getQueries reads GET /v1/debug/queries with the given query string.
func getQueries(t *testing.T, baseURL, params string) QueriesResponse {
	t.Helper()
	r, err := http.Get(baseURL + "/v1/debug/queries" + params)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("queries%s: status %d: %s", params, r.StatusCode, raw)
	}
	var resp QueriesResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainBody reads a response to its end and closes it.
func drainBody(r *http.Response) {
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
}

// TestDebugQueriesCapture checks the queries view end to end: every
// /v1/sql request that reached the planner is listed with its profile
// and request ID, in the slow ring too when over the threshold; no
// other trace is listed, not even a /v1/sql request rejected before
// planning; and both debug list routes validate their parameters.
func TestDebugQueriesCapture(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = time.Nanosecond // everything classifies slow
	})
	loadDoc(t, ts.URL, ptdfDoc("qc", 4))

	drainBody(doTagged(t, "POST", ts.URL+"/v1/sql", "req-capture", `{"sql": "SELECT count(*) FROM performance_result"}`))
	// A failing query is captured too, with its error.
	postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: "SELEC nope"}, nil)
	// Traced, but never planned: listed by neither ring.
	drainBody(doTagged(t, "POST", ts.URL+"/v1/sql", "req-undecodable", `{"sql": "SELECT 1", "bogus": true}`))
	drainBody(doTagged(t, "POST", ts.URL+"/v1/query", "req-family", `{"families": ["type=application"]}`))

	for _, slow := range []string{"", "?slow=1"} {
		resp := getQueries(t, ts.URL, slow)
		if len(resp.Queries) != 2 {
			t.Fatalf("queries%s: %d listed, want the 2 planned /v1/sql requests: %+v", slow, len(resp.Queries), resp.Queries)
		}
		// Newest first: the parse error, then the counted query.
		if resp.Queries[0].Error == "" {
			t.Errorf("queries%s: newest capture missing error: %+v", slow, resp.Queries[0])
		}
		ok := resp.Queries[1]
		if ok.RequestID != "req-capture" || ok.Profile == nil || ok.Rows != 1 || !ok.Slow || ok.DurationMS <= 0 {
			t.Errorf("queries%s: captured query = %+v, want req-capture with profile, 1 row, slow, a duration", slow, ok)
		}
	}
	if tr, code := getTrace(t, ts.URL, "req-undecodable"); code != http.StatusOK || tr.Trace.Route != "/v1/sql" {
		t.Errorf("rejected /v1/sql request not traced: status %d, %+v", code, tr.Trace)
	}

	for _, path := range []string{"/v1/debug/queries", "/v1/debug/traces"} {
		r, err := http.Get(ts.URL + path + "?limit=zero")
		if err != nil {
			t.Fatal(err)
		}
		drainBody(r)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s bad limit: status %d, want 400", path, r.StatusCode)
		}
	}
}

// TestDebugQueriesSlowOutlivesRecent checks what the separate slow ring
// is for: a slow /v1/sql request stays listed under ?slow=1 after more
// than traceBuffer fast requests have pushed it out of the recent ring.
func TestDebugQueriesSlowOutlivesRecent(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = 250 * time.Millisecond
	})
	loadDoc(t, ts.URL, ptdfDoc("so", 2))
	const q = `{"sql": "SELECT count(*) FROM performance_result"}`
	srv.injectDelay.Store(int64(300 * time.Millisecond))
	drainBody(doTagged(t, "POST", ts.URL+"/v1/sql", "req-slow", q))
	srv.injectDelay.Store(0)
	for i := 0; i <= traceBuffer; i++ {
		drainBody(doTagged(t, "POST", ts.URL+"/v1/sql", fmt.Sprintf("req-fast-%d", i), q))
	}
	for _, tr := range srv.tracer.Traces(false) {
		if tr.ID() == "req-slow" {
			t.Fatal("slow request still in the recent ring after traceBuffer newer requests")
		}
	}
	for _, rec := range getQueries(t, ts.URL, "?slow=1").Queries {
		if rec.RequestID == "req-slow" {
			if !rec.Slow || rec.DurationMS < 300 || rec.Profile == nil {
				t.Errorf("slow capture = %+v, want slow, >= 300ms, with profile", rec)
			}
			return
		}
	}
	t.Error("slow request missing from ?slow=1")
}

// TestDebugQueriesTruncatesText pins the per-request text cap: an
// oversized SQL statement and an oversized error are each cut to
// maxQueryTextBytes, marked, before the trace keeps them.
func TestDebugQueriesTruncatesText(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("tt", 2))
	long := strings.Repeat("x", 3*maxQueryTextBytes)
	postSQL(t, ts.URL, SQLRequest{SQL: "SELECT count(*) FROM performance_result WHERE metric <> '" + long + "'"})
	if code, raw := postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: "SELECT count(*) FROM " + long}, nil); code != http.StatusBadRequest || len(raw) < len(long) {
		t.Fatalf("unknown table: status %d, %d-byte body; want 400 naming the table", code, len(raw))
	}
	recs := getQueries(t, ts.URL, "").Queries
	if len(recs) != 2 {
		t.Fatalf("%d queries listed, want 2", len(recs))
	}
	// Newest first: the failed statement, then the one that ran.
	for _, text := range []string{recs[0].SQL, recs[0].Error, recs[1].SQL} {
		if len(text) != maxQueryTextBytes || !strings.HasSuffix(text, "...[truncated]") {
			t.Errorf("kept text of %d bytes ending %q, want %d bytes ending ...[truncated]",
				len(text), text[max(0, len(text)-20):], maxQueryTextBytes)
		}
	}
}

// TestDebugQueriesRetainedTextBound pins the memory bound DESIGN.md §13
// states: however many and however large the statements, the trace
// rings keep at most 2 × traceBuffer traces, each holding at most
// maxQueryTextBytes of SQL and as much of error.
func TestDebugQueriesRetainedTextBound(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = time.Nanosecond // both rings fill
	})
	loadDoc(t, ts.URL, ptdfDoc("tb", 2))
	body, err := json.Marshal(SQLRequest{
		SQL: "SELECT count(*) FROM performance_result WHERE metric <> '" + strings.Repeat("y", 64<<10) + "'",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*traceBuffer+8; i++ {
		r, err := http.Post(ts.URL+"/v1/sql", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		drainBody(r)
	}
	held := map[*obs.Trace]bool{}
	text := 0
	for _, slow := range []bool{false, true} {
		for _, tr := range srv.tracer.Traces(slow) {
			if c, ok := tr.Attachment().(*sqlCapture); ok && !held[tr] {
				held[tr] = true
				text += len(c.sql) + len(c.err)
			}
		}
	}
	if len(held) < traceBuffer || len(held) > 2*traceBuffer {
		t.Errorf("rings hold %d captures, want between %d and %d", len(held), traceBuffer, 2*traceBuffer)
	}
	if bound := 2 * traceBuffer * 2 * maxQueryTextBytes; text > bound {
		t.Errorf("rings keep %d bytes of query text, over the %d-byte bound", text, bound)
	}
}

// TestTraceRingsBoundClientText: the request ID and path a trace keeps
// are the client's text, so route bounds both. 64 requests with a
// 200 KB X-Request-Id and a 200 KB path leave at most 64 KiB of trace
// IDs and annotations in the rings.
func TestTraceRingsBoundClientText(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	long := strings.Repeat("x", 200<<10)
	for i := 0; i < 64; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/reports/"+long, nil)
		req.Header.Set("X-Request-Id", long)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Header.Get("X-Request-Id"); i == 0 && (got == long || got == "") {
			t.Errorf("echoed request ID of %d bytes, want a generated one", len(got))
		}
		drainBody(r)
	}
	held := 0
	for _, slow := range []bool{false, true} {
		for _, tr := range srv.tracer.Traces(slow) {
			d := tr.Data()
			held += len(d.ID)
			for _, sp := range d.Spans {
				for _, a := range sp.Annotations {
					held += len(a.Key) + len(a.Value)
				}
			}
		}
	}
	if held > 64<<10 {
		t.Errorf("trace rings keep %d bytes of IDs and annotations, want at most %d", held, 64<<10)
	}
}

// TestDebugQueriesRace races /v1/sql writers, which attach their
// captures on the handler goroutine, against readers of the queries
// view and of single traces. Under -race it checks that every capture
// reaches the readers ordered after its write and is never written
// again once a reader can see it.
func TestDebugQueriesRace(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = time.Nanosecond // writers feed both rings
	})
	loadDoc(t, ts.URL, ptdfDoc("rc", 3))
	do := func(method, path, rid, body string) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("X-Request-Id", rid)
		req.Header.Set("Content-Type", "application/json")
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		drainBody(r)
		if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d", method, path, r.StatusCode)
		}
	}
	const writers, readers, rounds = 3, 2, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				do("POST", "/v1/sql", fmt.Sprintf("race-%d-%d", w, i),
					fmt.Sprintf(`{"sql": "SELECT count(*) FROM performance_result WHERE value > %d"}`, i))
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				do("GET", []string{"/v1/debug/queries", "/v1/debug/queries?slow=1"}[rd], "", "")
				do("GET", fmt.Sprintf("/v1/debug/traces/race-%d-%d", rd, i), "", "")
			}
		}(rd)
	}
	wg.Wait()
	if n := len(getQueries(t, ts.URL, "?limit=100").Queries); n != writers*rounds {
		t.Errorf("%d queries listed, want %d", n, writers*rounds)
	}
}

// TestTimeoutJSONEnvelope pins the raw bytes of the timeout reply: an
// api request whose deadline passes unanswered gets the standard v1
// error envelope (request_id included), not http.TimeoutHandler's
// plain-text body.
func TestTimeoutJSONEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.RequestTimeout = 10 * time.Millisecond })
	h := srv.route("/v1/stats", api, func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set("X-Request-Id", "req-timeout")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	want := "{\n  \"api_version\": \"v1\",\n  \"error\": \"request timed out\",\n  \"request_id\": \"req-timeout\"\n}\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("timeout envelope drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTimeoutCompletesFast checks the passthrough path: a handler that
// finishes in time reaches the client byte-for-byte, headers included.
func TestTimeoutCompletesFast(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.route("/v1/stats", api, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body"))
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "body" || rec.Header().Get("X-Custom") != "yes" {
		t.Errorf("passthrough drifted: code=%d body=%q headers=%v", rec.Code, rec.Body.String(), rec.Header())
	}
}

// TestTimeoutPropagatesPanic checks that a panicking handler under the
// deadline is answered with the 500 envelope on the serving goroutine,
// and counted under its route and code like any other request.
func TestTimeoutPropagatesPanic(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	h := srv.route("/v1/stats", api, func(http.ResponseWriter, *http.Request) { panic("boom") })
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set("X-Request-Id", "req-panic")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	want := "{\n  \"api_version\": \"v1\",\n  \"error\": \"internal error\",\n  \"request_id\": \"req-panic\"\n}\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("panic reply: status %d, body:\n%s\nwant 500 and:\n%s", rec.Code, rec.Body, want)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if want := `ptserved_requests_total{route="/v1/stats",code="500"} 1`; !strings.Contains(string(raw), want) {
		t.Errorf("metrics missing %q\n%s", want, raw)
	}
}

// exemplarRe matches the OpenMetrics exemplar suffix on a _bucket line.
var exemplarRe = regexp.MustCompile(`_bucket{[^}]*} \d+ # \{trace_id="req-exemplar"\} [0-9.eE+-]+ \d+$`)

// openMetricsAccept is what a Prometheus scraper negotiating the
// OpenMetrics format sends.
const openMetricsAccept = "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5"

// TestMetricsExemplarsAndQueryProfiles checks the /metrics surface in
// both negotiated formats: the /v1/sql request count and latency
// buckets (which count slow queries) are exported, the
// plain 0.0.4 body stays exemplar-free (its parser rejects trailing
// content after a sample value), and an OpenMetrics scrape gets the
// request ID of a recent observation as a bucket exemplar plus the
// terminating # EOF.
func TestMetricsExemplarsAndQueryProfiles(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("me", 3))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sql",
		strings.NewReader(`{"sql": "SELECT count(*) FROM performance_result"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-exemplar")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()

	scrape := func(accept string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(raw), r.Header.Get("Content-Type")
	}

	body, ct := scrape("")
	if ct != "text/plain; version=0.0.4" {
		t.Errorf("plain scrape Content-Type = %q", ct)
	}
	for _, name := range []string{
		`ptserved_requests_total{route="/v1/sql",code="200"} 1`,
		`ptserved_request_duration_seconds_bucket{route="/v1/sql",le=`,
		"ptserved_selfmon_samples_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if strings.Contains(body, "# {") || strings.Contains(body, "# EOF") {
		t.Errorf("plain 0.0.4 scrape carries OpenMetrics-only syntax:\n%s", body)
	}

	body, ct = scrape(openMetricsAccept)
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics scrape Content-Type = %q", ct)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics scrape not terminated by # EOF")
	}
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "ptserved_request_duration_seconds_bucket") && exemplarRe.MatchString(line) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no latency bucket carries the req-exemplar exemplar:\n%s", body)
	}
}

// TestSelfDiagnosePlantedSlowdown is the acceptance check for the
// continuous self-diagnosis loop: requests run fast through several
// telemetry samples, then the fault-injection delay throttles the
// handler path; /v1/debug/selfdiagnose must measure the recent window
// as slower and rank a discriminating predicate that separates it from
// the baseline.
func TestSelfDiagnosePlantedSlowdown(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = 5 * time.Millisecond
	})
	loadDoc(t, ts.URL, ptdfDoc("sd", 4))

	burst := func() {
		for i := 0; i < 3; i++ {
			postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, nil)
		}
	}
	for i := 0; i < 4; i++ { // fast baseline samples
		burst()
		if err := srv.selfmon.SampleNow(); err != nil {
			t.Fatalf("baseline sample %d: %v", i, err)
		}
	}
	srv.injectDelay.Store(int64(20 * time.Millisecond)) // the slowdown lands
	defer srv.injectDelay.Store(0)
	for i := 0; i < 2; i++ {
		burst()
		if err := srv.selfmon.SampleNow(); err != nil {
			t.Fatalf("slow sample %d: %v", i, err)
		}
	}

	r, err := http.Get(ts.URL + "/v1/debug/selfdiagnose?recent=2")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("selfdiagnose: status %d: %s", r.StatusCode, raw)
	}
	var resp SelfDiagnoseResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Diagnosis == nil {
		t.Fatalf("selfdiagnose = %s", raw)
	}
	if resp.Samples != 6 || resp.Baseline != 4 || resp.Recent != 2 {
		t.Errorf("window split = %d/%d/%d, want 6/4/2", resp.Samples, resp.Baseline, resp.Recent)
	}
	d := resp.Diagnosis
	if d.PerfA == nil || d.PerfB == nil || *d.PerfB <= *d.PerfA {
		t.Fatalf("recent window not measured slower: perf_a=%v perf_b=%v", d.PerfA, d.PerfB)
	}
	if len(d.Explanations) == 0 {
		t.Fatal("no discriminating predicate ranked for the planted slowdown")
	}
	// The planted delay makes requests cross the slow threshold, so the
	// slow-trace counter must surface as a discriminating predicate.
	// Other telemetry (heap, goroutines) may legitimately tie it in
	// rank, so look for it anywhere in the ranking rather than pinning
	// first place.
	found := false
	for _, ex := range d.Explanations {
		if ex.Attr == "slow_traces_delta" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("slow_traces_delta not among the discriminating predicates: %v", d.Explanations)
	}
}

// TestSelfDiagnoseNotEnoughSamples checks the pre-warm-up reply: 200
// with a status message instead of an error envelope, so dashboards can
// poll it from process start.
func TestSelfDiagnoseNotEnoughSamples(t *testing.T) {
	_, ts := newTestServer(t, nil)
	r, err := http.Get(ts.URL + "/v1/debug/selfdiagnose")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r.StatusCode, raw)
	}
	var resp SelfDiagnoseResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Diagnosis != nil || !strings.Contains(resp.Status, "samples") {
		t.Errorf("pre-warm-up reply = %s", raw)
	}
}

// TestSelfDiagnoseForceSample checks ?sample=1: two forced samples are
// enough to produce a diagnosis without waiting out the interval.
func TestSelfDiagnoseForceSample(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("fs", 2))
	var resp SelfDiagnoseResponse
	for i := 0; i < 2; i++ {
		r, err := http.Get(ts.URL + "/v1/debug/selfdiagnose?sample=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if resp.Status != "ok" || resp.Samples != 2 {
		t.Errorf("after two forced samples: status=%q samples=%d, want ok/2", resp.Status, resp.Samples)
	}
}

// TestAcceptsOpenMetrics pins the /metrics content negotiation: only an
// Accept header offering application/openmetrics-text with non-zero
// quality selects the OpenMetrics (exemplar-carrying) format.
func TestAcceptsOpenMetrics(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                 false,
		"text/plain":                       false,
		"application/openmetrics-text":     true,
		openMetricsAccept:                  true,
		"application/openmetrics-text;q=0": false,
		"text/plain, application/openmetrics-text; version=0.0.1; q=0.8": true,
	} {
		if got := acceptsOpenMetrics(accept); got != want {
			t.Errorf("acceptsOpenMetrics(%q) = %v, want %v", accept, got, want)
		}
	}
}
