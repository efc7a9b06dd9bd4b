package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// doTagged issues a request carrying a fixed X-Request-Id so the
// resulting trace can be fetched back by ID.
func doTagged(t *testing.T, method, url, rid string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", rid)
	if method == http.MethodPost && strings.HasPrefix(body, "{") {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getTrace(t *testing.T, baseURL, rid string) (TraceResponse, int) {
	t.Helper()
	r, err := http.Get(baseURL + "/v1/debug/traces/" + rid)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tr TraceResponse
	if r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, r.StatusCode
}

func spanNames(tr TraceResponse) map[string]SpanWire {
	out := make(map[string]SpanWire, len(tr.Spans))
	for _, sp := range tr.Spans {
		out[sp.Name] = sp
	}
	return out
}

// TestTraceByRequestID is the acceptance check for the tracing tentpole:
// a request tagged with X-Request-Id must be retrievable at
// /v1/debug/traces/{id} with the named datastore spans recorded under
// the request's root span.
func TestTraceByRequestID(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// A traced load records the PTdf decode and the batch commit.
	r := doTagged(t, http.MethodPost, ts.URL+"/v1/load", "rid-load-1", ptdfDoc("tr", 3))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("load: status %d", r.StatusCode)
	}
	tr, code := getTrace(t, ts.URL, "rid-load-1")
	if code != http.StatusOK {
		t.Fatalf("trace fetch: status %d", code)
	}
	if tr.Trace.ID != "rid-load-1" || tr.Trace.Route != "/v1/load" {
		t.Errorf("trace summary = %+v", tr.Trace)
	}
	spans := spanNames(tr)
	root, ok := spans["/v1/load"]
	if !ok || root.Parent != -1 {
		t.Fatalf("no root span: %+v", tr.Spans)
	}
	if root.Annotations["status"] != "200" || root.Annotations["method"] != "POST" {
		t.Errorf("root annotations = %v", root.Annotations)
	}
	for _, want := range []string{"datastore.load.decode", "datastore.batch.commit", "datastore.batch.apply", "reldb.commit"} {
		sp, ok := spans[want]
		if !ok {
			t.Errorf("trace missing span %q; have %v", want, tr.Spans)
			continue
		}
		if sp.Parent < 0 || sp.Parent >= len(tr.Spans) {
			t.Errorf("span %q has bad parent %d", want, sp.Parent)
		}
	}
	if commit := spans["datastore.batch.commit"]; commit.Annotations["records"] != "8" {
		t.Errorf("commit records annotation = %v", commit.Annotations)
	}
	// The commit's two phases are its children: staging the records into
	// the transaction, and the engine's commit of what they staged.
	for _, child := range []string{"datastore.batch.apply", "reldb.commit"} {
		if p := spans[child].Parent; p < 0 || p >= len(tr.Spans) || tr.Spans[p].Name != "datastore.batch.commit" {
			t.Errorf("span %q is not a child of datastore.batch.commit (parent %d)", child, p)
		}
	}
	if rows := spans["datastore.batch.apply"].Annotations["rows"]; rows == "" || rows == "0" {
		t.Errorf("apply rows annotation = %q", rows)
	}

	// A traced query records the pr-filter evaluation and family lookups,
	// annotated with the cache outcome.
	body, _ := json.Marshal(QueryRequest{Families: []string{"type=application"}})
	r = doTagged(t, http.MethodPost, ts.URL+"/v1/query", "rid-query-1", string(body))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	tr, code = getTrace(t, ts.URL, "rid-query-1")
	if code != http.StatusOK {
		t.Fatalf("query trace: status %d", code)
	}
	spans = spanNames(tr)
	for _, want := range []string{"datastore.filter", "datastore.prfilter", "datastore.family"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("query trace missing span %q; have %v", want, tr.Spans)
		}
	}
	if c := spans["datastore.family"].Annotations["cache"]; c != "hit" && c != "miss" {
		t.Errorf("family span cache annotation = %q", c)
	}

	// A traced retrieval records the materializer phases.
	body, _ = json.Marshal(ResultsRequest{Families: []string{"type=application"}})
	r = doTagged(t, http.MethodPost, ts.URL+"/v1/results", "rid-results-1", string(body))
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	tr, code = getTrace(t, ts.URL, "rid-results-1")
	if code != http.StatusOK {
		t.Fatalf("results trace: status %d", code)
	}
	spans = spanNames(tr)
	for _, want := range []string{"materialize.fetch", "materialize.focus", "materialize.assemble"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("results trace missing span %q; have %v", want, tr.Spans)
		}
	}
}

func TestDebugTracesListAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, nil)

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// /healthz is untraced; the list starts empty.
	var list TracesResponse
	r, err = http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list.Traces) != 0 {
		t.Errorf("untraced probe produced traces: %+v", list.Traces)
	}

	loadDoc(t, ts.URL, ptdfDoc("dl", 1))
	body, _ := json.Marshal(QueryRequest{Families: []string{"type=application"}})
	http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))

	r, err = http.Get(ts.URL + "/v1/debug/traces?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	list = TracesResponse{}
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list.Traces) != 1 {
		t.Fatalf("limit=1 returned %d traces", len(list.Traces))
	}
	// Newest first: the query came after the load.
	if list.Traces[0].Route != "/v1/query" || list.Traces[0].Spans < 2 {
		t.Errorf("newest trace = %+v", list.Traces[0])
	}

	if _, code := getTrace(t, ts.URL, "never-seen"); code != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", code)
	}
	r, err = http.Get(ts.URL + "/v1/debug/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", r.StatusCode)
	}
}

// TestSelfPTdfRoundTrip is the dog-food check: the telemetry document
// served by /v1/debug/selfptdf must load cleanly into a fresh PerfTrack
// store and be queryable like any other performance data.
func TestSelfPTdfRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("sp", 2))
	body, _ := json.Marshal(QueryRequest{Families: []string{"type=application"}})
	http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))

	r, err := http.Get(ts.URL + "/v1/debug/selfptdf")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("selfptdf: status %d: %s", r.StatusCode, doc)
	}

	fresh, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fresh.LoadPTdfCtx(context.Background(), bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("self-profile does not load: %v\n%s", err, doc)
	}
	if stats.Results == 0 || stats.Apps != 1 || stats.Executions != 1 {
		t.Errorf("self-profile stats = %+v\n%s", stats, doc)
	}

	apps, err := fresh.Applications()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0] != "ptserved" {
		t.Errorf("applications = %v", apps)
	}
	metrics, err := fresh.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var hasLoad, hasCommits bool
	for _, m := range metrics {
		if m == "/v1/load requests" {
			hasLoad = true
		}
		if m == "batch commits" {
			hasCommits = true
		}
	}
	if !hasLoad || !hasCommits {
		t.Errorf("self-profile metrics = %v", metrics)
	}
}
