package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// ptdfDoc builds a small self-contained PTdf document whose names are
// derived from tag, so concurrent loaders never collide.
func ptdfDoc(tag string, results int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Application app-%s\n", tag)
	fmt.Fprintf(&b, "Execution exec-%s app-%s\n", tag, tag)
	fmt.Fprintf(&b, "Resource /app-%s application\n", tag)
	fmt.Fprintf(&b, "Resource /exec-%s execution exec-%s\n", tag, tag)
	fmt.Fprintf(&b, "ResourceAttribute /exec-%s nprocs 8 string\n", tag)
	for i := 0; i < results; i++ {
		fmt.Fprintf(&b, "PerfResult exec-%s /app-%s,/exec-%s(primary) ptool \"wall time\" %d.5 seconds\n", tag, tag, tag, i)
	}
	return b.String()
}

func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, req, resp any) (int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, raw)
		}
	}
	return r.StatusCode, string(raw)
}

func loadDoc(t *testing.T, baseURL, doc string) LoadResponse {
	t.Helper()
	r, err := http.Post(baseURL+"/v1/load", "text/plain", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d: %s", r.StatusCode, raw)
	}
	var lr LoadResponse
	if err := json.Unmarshal(raw, &lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestConcurrentLoadAndQuery is the headline e2e check: several loaders
// stream distinct PTdf documents while queriers hammer /v1/query and the
// report endpoints. Run under -race this exercises the full lock
// discipline; afterwards the combined counts must be exact (no lost
// loads, no stale cached counts).
func TestConcurrentLoadAndQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const loaders, queriers, perDoc = 4, 4, 5

	var wg sync.WaitGroup
	errs := make(chan error, loaders+queriers)
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc := ptdfDoc(fmt.Sprintf("l%d", i), perDoc)
			r, err := http.Post(ts.URL+"/v1/load", "text/plain", strings.NewReader(doc))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("loader %d: status %d: %s", i, r.StatusCode, body)
			}
		}(i)
	}
	done := make(chan struct{})
	for i := 0; i < queriers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var qr QueryResponse
				body, _ := json.Marshal(QueryRequest{Families: []string{"type=application"}})
				r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(r.Body)
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query status %d: %s", r.StatusCode, raw)
					return
				}
				if err := json.Unmarshal(raw, &qr); err != nil {
					errs <- err
					return
				}
				if max := loaders * perDoc; qr.Matches > max {
					errs <- fmt.Errorf("query counted %d matches, max possible %d", qr.Matches, max)
					return
				}
			}
		}()
	}
	// Let the queriers overlap the loads, then stop them.
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every load landed and the final count is exact, not a stale cache.
	var qr QueryResponse
	code, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, &qr)
	if code != http.StatusOK {
		t.Fatalf("final query: %d %s", code, raw)
	}
	if want := loaders * perDoc; qr.Matches != want {
		t.Errorf("final matches = %d, want %d", qr.Matches, want)
	}
	if len(qr.Families) != 1 || qr.Families[0].Resources != loaders {
		t.Errorf("families = %+v, want %d application resources", qr.Families, loaders)
	}
}

// TestQueryReflectsIngestImmediately guards the generation contract: a
// cached count must never be served across a load.
func TestQueryReflectsIngestImmediately(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := QueryRequest{Families: []string{"type=application"}}

	loadDoc(t, ts.URL, ptdfDoc("one", 2))
	var q1 QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &q1)
	// Ask twice so the second answer comes from the match cache.
	var q2 QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &q2)
	if q2.Matches != 2 || q2.CacheHits <= q1.CacheHits {
		t.Errorf("cached query: %+v then %+v", q1, q2)
	}

	lr := loadDoc(t, ts.URL, ptdfDoc("two", 3))
	if lr.Generation <= q2.Generation {
		t.Errorf("load did not advance generation: %d -> %d", q2.Generation, lr.Generation)
	}
	var q3 QueryResponse
	postJSON(t, ts.URL+"/v1/query", req, &q3)
	if q3.Matches != 5 {
		t.Errorf("post-load matches = %d, want 5 (stale cache?)", q3.Matches)
	}
}

func TestResultsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("r", 4))

	var res ResultsResponse
	code, raw := postJSON(t, ts.URL+"/v1/results", ResultsRequest{
		Families:      []string{"type=application"},
		Metric:        "wall time",
		AddAttributes: []string{"execution.nprocs"},
		SortBy:        "value",
		Descending:    true,
		Limit:         2,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("results: %d %s", code, raw)
	}
	if res.Total != 4 || len(res.Rows) != 2 {
		t.Fatalf("total = %d rows = %d, want 4/2", res.Total, len(res.Rows))
	}
	wantCols := []string{"execution", "metric", "value", "units", "tool", "execution.nprocs"}
	if strings.Join(res.Columns, ",") != strings.Join(wantCols, ",") {
		t.Errorf("columns = %v", res.Columns)
	}
	// Sorted descending by value: 3.5 then 2.5; attribute column filled.
	if res.Rows[0][2] != "3.5" || res.Rows[1][2] != "2.5" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Rows[0][5] != "8" {
		t.Errorf("attribute cell = %q, want 8", res.Rows[0][5])
	}
}

func TestReports(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("rep", 1))

	var rep ReportResponse
	r, err := http.Get(ts.URL + "/v1/reports/executions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(rep.Items) != 1 || rep.Items[0] != "exec-rep" {
		t.Errorf("executions = %+v", rep)
	}

	var st StatsResponse
	r, err = http.Get(ts.URL + "/v1/reports/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Store.Results != 1 || st.Store.Applications != 1 {
		t.Errorf("stats = %+v", st.Store)
	}

	r, err = http.Get(ts.URL + "/v1/reports/bogus")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown report: status %d", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// Malformed JSON.
	r, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", r.StatusCode)
	}

	// Bad family spec.
	code, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"nonsense"}}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad spec: status %d %s", code, body)
	}

	// Bad PTdf document: rejected AND rolled back.
	r, err = http.Post(ts.URL+"/v1/load", "text/plain",
		strings.NewReader("Application half\nPerfResult nope /ghost(primary) t m 1 u\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad PTdf: status %d", r.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" || er.RequestID == "" {
		t.Errorf("error body = %s", raw)
	}
	var st StatsResponse
	if _, err := http.Get(ts.URL + "/v1/reports/stats"); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/query", QueryRequest{}, nil)
	rr, err := http.Get(ts.URL + "/v1/reports/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(rr.Body).Decode(&st)
	rr.Body.Close()
	if st.Store.Applications != 0 {
		t.Errorf("failed load left data: %+v", st.Store)
	}
}

func TestReadOnlyRejectsLoad(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.ReadOnly = true })
	r, err := http.Post(ts.URL+"/v1/load", "text/plain", strings.NewReader(ptdfDoc("ro", 1)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusForbidden {
		t.Errorf("read-only load: status %d, want 403", r.StatusCode)
	}
	var h HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if !h.ReadOnly || h.Status != "ok" {
		t.Errorf("health = %+v", h)
	}
}

// TestSheddingUnderLoad pins MaxInFlight to 1, parks that slot on a load
// whose body never finishes, and checks that the next API request is
// shed with 429 + Retry-After while /healthz (unlimited) still answers.
func TestSheddingUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })

	pr, pw := io.Pipe()
	started := make(chan struct{})
	loadErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/load", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		loadErr <- err
	}()
	// Feed the first bytes: once the client has written them the request is
	// on the wire, and the load handler takes the in-flight slot as soon as
	// the server schedules it — and then keeps it until the pipe closes.
	go func() {
		pw.Write([]byte("Application slow\n"))
		close(started)
	}()
	<-started

	// Queries are shed from that moment on. How long the moment takes is up
	// to the scheduler (a loaded `go test ./...` has delayed it past two
	// seconds), so poll until the test's own deadline nears, not a fixed
	// window.
	giveUp := time.Now().Add(time.Minute)
	if d, ok := t.Deadline(); ok {
		giveUp = d.Add(-10 * time.Second)
	}
	shed := false
	for time.Now().Before(giveUp) {
		body, _ := json.Marshal(QueryRequest{Families: []string{"type=application"}})
		r, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		code := r.StatusCode
		retryAfter := r.Header.Get("Retry-After")
		r.Body.Close()
		if code == http.StatusTooManyRequests {
			if retryAfter == "" {
				t.Error("429 without Retry-After")
			}
			shed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !shed {
		t.Error("no request was shed with MaxInFlight=1 and a stuck load")
	}

	// Health stays reachable while the API is saturated.
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz during saturation: status %d", r.StatusCode)
	}

	pw.Close() // EOF finishes the stuck load
	if err := <-loadErr; err != nil {
		t.Fatalf("stuck load failed: %v", err)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("m", 1))
	postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, nil)

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	body := string(raw)
	for _, want := range []string{
		`ptserved_requests_total{route="/v1/load",code="200"} 1`,
		`ptserved_requests_total{route="/v1/query",code="200"} 1`,
		`ptserved_request_duration_seconds_count{route="/v1/load"} 1`,
		"ptserved_in_flight_requests",
		"ptserved_requests_shed_total 0",
		"ptserved_store_generation",
		"ptserved_query_cache_misses",
		"ptserved_query_cache_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "fixed-id-123")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got := r.Header.Get("X-Request-Id"); got != "fixed-id-123" {
		t.Errorf("request id = %q", got)
	}
	// Generated when absent.
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.Header.Get("X-Request-Id") == "" {
		t.Error("no generated request id")
	}
}

// TestShutdownDrainsAndCheckpoints runs a real listener over a file-backed
// store, ingests over the network, then shuts down: every row must be in a
// segment the manifest names, perftrack.wal must hold the schema alone,
// and a reopened store must serve the data.
func TestShutdownDrainsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datastore.Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	loadDoc(t, base, ptdfDoc("shut", 3))

	// The engine's residency gauges: three results (and their
	// links) sit in the tail, resident in row form.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, family := range []string{"ptserved_store_compactor_lag_rows", "ptserved_store_row_resident_bytes"} {
		var v float64
		for _, line := range strings.Split(string(metrics), "\n") {
			fmt.Sscanf(line, family+" %g", &v)
		}
		if v < 3 {
			t.Errorf("%s = %v after loading three results, want at least 3", family, v)
		}
	}
	// No segment yet: the gauge of their residency is exported, at 0.
	if !strings.Contains(string(metrics), "\nptserved_store_segment_resident_bytes 0\n") {
		t.Error("/metrics has no ptserved_store_segment_resident_bytes gauge at 0")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}

	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint happened: no snapshot, no tail log, a manifest naming every
	// table, and a perftrack.wal byte for byte what a fresh store's
	// checkpoint leaves: the schema.
	if _, err := os.Stat(filepath.Join(dir, "perftrack.snap")); !os.IsNotExist(err) {
		t.Errorf("perftrack.snap after shutdown: %v", err)
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "segments", "tail-*.log")); len(logs) != 0 {
		t.Errorf("tail logs after shutdown: %v", logs)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "segments", "MANIFEST"))
	if names := fe.TableNames(); err != nil || len(names) != 16 {
		t.Errorf("manifest: %v; %d tables, want 16", err, len(names))
	} else {
		for _, name := range names {
			if !bytes.Contains(manifest, append([]byte{byte(len(name))}, name...)) {
				t.Errorf("the manifest does not name %s", name)
			}
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, "perftrack.wal"))
	if err != nil || !bytes.Equal(wal, checkpointedSchema(t)) {
		t.Errorf("perftrack.wal after shutdown holds more than the schema: %d bytes, %v", len(wal), err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := datastore.Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Results != 3 || st.Applications != 1 {
		t.Errorf("reopened store stats = %+v", st)
	}
}

// checkpointedSchema returns the perftrack.wal a fresh store's checkpoint
// leaves: the schema's DDL records and nothing else.
func checkpointedSchema(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if _, err := datastore.Open(fe); err != nil {
		t.Fatal(err)
	}
	if err := fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "perftrack.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}
