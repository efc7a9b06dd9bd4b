package server

import (
	"bytes"
	"encoding/json"
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

// TestDebugQueriesCapture checks the slow-query ring end to end: every
// /v1/sql execution is captured with its profile and request ID, the
// slow ring keeps only executions over the threshold, and parameters
// are validated.
func TestDebugQueriesCapture(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SlowRequestThreshold = time.Nanosecond // everything classifies slow
	})
	loadDoc(t, ts.URL, ptdfDoc("qc", 4))

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sql",
		strings.NewReader(`{"sql": "SELECT count(*) FROM performance_result"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "req-capture")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	// A failing query is captured too, with its error.
	postJSON(t, ts.URL+"/v1/sql", SQLRequest{SQL: "SELEC nope"}, nil)

	for _, slow := range []string{"", "?slow=1"} {
		r, err := http.Get(ts.URL + "/v1/debug/queries" + slow)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("queries%s: status %d: %s", slow, r.StatusCode, raw)
		}
		var resp QueriesResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Queries) == 0 {
			t.Fatalf("queries%s: empty capture", slow)
		}
		if slow == "" {
			// Newest first: the parse error, then the counted query.
			if resp.Queries[0].Error == "" {
				t.Errorf("newest capture missing error: %+v", resp.Queries[0])
			}
			ok := resp.Queries[1]
			if ok.RequestID != "req-capture" || ok.Profile == nil || ok.Rows != 1 || !ok.Slow {
				t.Errorf("captured query = %+v, want req-capture with profile, 1 row, slow", ok)
			}
		}
	}

	st := srv.queries.stats()
	if st.Total != 2 || st.SlowTotal != 2 || st.Entries != 2 {
		t.Errorf("query log stats = %+v, want 2 total, 2 slow, 2 resident", st)
	}

	if code, _ := func() (int, string) {
		r, err := http.Get(ts.URL + "/v1/debug/queries?limit=zero")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		raw, _ := io.ReadAll(r.Body)
		return r.StatusCode, string(raw)
	}(); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
}

// TestQueryRingEviction pins the byte bound: a ring never grows past
// its budget and evicts oldest-first.
func TestQueryRingEviction(t *testing.T) {
	ring := queryRing{maxBytes: 3 * queryRecordOverhead}
	for i := 0; i < 10; i++ {
		ring.add(queryRecord{SQL: strings.Repeat("x", i)})
	}
	if len(ring.recs) >= 10 {
		t.Fatalf("ring never evicted: %d records", len(ring.recs))
	}
	if ring.bytes > ring.maxBytes+queryRecordOverhead {
		t.Errorf("ring bytes %d exceed budget %d", ring.bytes, ring.maxBytes)
	}
	// Newest survives.
	last := ring.recs[len(ring.recs)-1]
	if len(last.SQL) != 9 {
		t.Errorf("newest record evicted; tail SQL len = %d", len(last.SQL))
	}
}

// TestTimeoutJSONEnvelope pins the raw bytes of the timeout reply: the
// custom timeout middleware must answer expiry with the standard v1
// error envelope (request_id included), not http.TimeoutHandler's
// plain-text body.
func TestTimeoutJSONEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.RequestTimeout = 10 * time.Millisecond })
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	h := withRequestID(srv.timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})))
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
	h := srv.timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "body" || rec.Header().Get("X-Custom") != "yes" {
		t.Errorf("passthrough drifted: code=%d body=%q headers=%v", rec.Code, rec.Body.String(), rec.Header())
	}
}

// TestTimeoutPropagatesPanic checks that a panicking handler re-raises
// on the serving goroutine so recoverPanics still turns it into a 500.
func TestTimeoutPropagatesPanic(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	h := srv.timeout(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }))
	defer func() {
		if v := recover(); v != "boom" {
			t.Errorf("recovered %v, want the handler's panic value", v)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	t.Fatal("panic did not propagate")
}

// exemplarRe matches the OpenMetrics exemplar suffix on a _bucket line.
var exemplarRe = regexp.MustCompile(`_bucket{[^}]*} \d+ # \{trace_id="req-exemplar"\} [0-9.eE+-]+ \d+$`)

// openMetricsAccept is what a Prometheus scraper negotiating the
// OpenMetrics format sends.
const openMetricsAccept = "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5"

// TestMetricsExemplarsAndQueryProfiles checks the /metrics surface in
// both negotiated formats: the query-profile family is exported, the
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
		"ptserved_query_profiles_total",
		"ptserved_query_profiles_slow_total",
		"ptserved_query_profile_entries",
		"ptserved_query_profile_bytes",
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

// TestQueryLogBoundsOversizedRecords pins the byte budget against a
// single pathological statement: SQL text is truncated at capture time,
// and a record that would alone exceed a ring's whole budget is dropped
// rather than pinning the ring above its bound.
func TestQueryLogBoundsOversizedRecords(t *testing.T) {
	ql := newQueryLog(queryLogBytes, 0)
	ql.add(queryRecord{SQL: strings.Repeat("s", 3*maxQueryTextBytes)})
	recs := ql.list(false, 10)
	if len(recs) != 1 || len(recs[0].SQL) != maxQueryTextBytes {
		t.Fatalf("oversized SQL not truncated: %d records, SQL len %d", len(recs), len(recs[0].SQL))
	}
	if !strings.HasSuffix(recs[0].SQL, "...[truncated]") {
		t.Errorf("truncated SQL not marked: %q", recs[0].SQL[len(recs[0].SQL)-20:])
	}

	ring := queryRing{maxBytes: queryRecordOverhead} // any non-empty text is over budget
	ring.add(queryRecord{SQL: "x"})
	if len(ring.recs) != 0 || ring.bytes != 0 {
		t.Errorf("record over the whole budget was kept: %d records, %d bytes", len(ring.recs), ring.bytes)
	}
	ring.add(queryRecord{})
	if len(ring.recs) != 1 {
		t.Errorf("record exactly at budget was dropped")
	}
}

// lockedBuf is a goroutine-safe buffer for capturing log output.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestTimeoutLatePanicLogged checks that a handler panic landing after
// the deadline has already answered 503 — when no goroutine is left to
// re-raise it on — is logged instead of vanishing.
func TestTimeoutLatePanicLogged(t *testing.T) {
	var lb lockedBuf
	srv, _ := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 10 * time.Millisecond
		c.Log = obs.NewLogger(&lb, obs.LevelError)
	})
	release := make(chan struct{})
	h := srv.timeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		panic("late boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	close(release) // now let the handler panic, after the 503 went out
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(lb.String(), "handler panic after timeout") {
		if time.Now().After(deadline) {
			t.Fatalf("late panic never logged; log so far:\n%s", lb.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if out := lb.String(); !strings.Contains(out, "late boom") {
		t.Errorf("log line missing the panic value:\n%s", out)
	}
}
