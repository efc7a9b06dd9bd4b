package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// multipartBody assembles named PTdf documents into one multipart body.
func multipartBody(t *testing.T, docs map[string]string, order []string) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, name := range order {
		part, err := mw.CreateFormFile("ptdf", name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := part.Write([]byte(docs[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// postMultipart posts a bulk load and decodes the NDJSON status stream.
func postMultipart(t *testing.T, url string, body *bytes.Buffer, contentType string) []LoadDocStatus {
	t.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var lines []LoadDocStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var st LoadDocStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad status line %q: %v", sc.Text(), err)
		}
		lines = append(lines, st)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestBulkLoadMultipartNDJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	docs := map[string]string{}
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("doc-%d.ptdf", i)
		docs[name] = ptdfDoc(fmt.Sprintf("bulk%d", i), 2)
		order = append(order, name)
	}
	docs["doc-2.ptdf"] = "Garbage line\n" // one bad document mid-stream

	body, ct := multipartBody(t, docs, order)
	lines := postMultipart(t, ts.URL+"/v1/load?j=2", body, ct)
	if len(lines) != 5 {
		t.Fatalf("got %d status lines, want 4 docs + summary:\n%+v", len(lines), lines)
	}
	for i, st := range lines[:4] {
		if st.APIVersion != APIVersion {
			t.Errorf("line %d: api_version = %q", i, st.APIVersion)
		}
		if st.Doc != order[i] {
			t.Errorf("line %d: doc = %q, want %q (in-order commits)", i, st.Doc, order[i])
		}
		if i == 2 {
			if st.Error == "" {
				t.Error("bad document reported no error")
			}
			continue
		}
		if st.Error != "" {
			t.Errorf("doc %d failed: %s", i, st.Error)
		}
		if st.Stats.Results != 2 {
			t.Errorf("doc %d stats = %+v", i, st.Stats)
		}
	}
	sum := lines[4]
	if !sum.Done || sum.Docs != 4 || sum.Failed != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Stats.Results != 6 {
		t.Errorf("summary totals = %+v", sum.Stats)
	}

	// The three good documents are queryable; the bad one left nothing.
	var qr QueryResponse
	code, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, &qr)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if qr.Matches != 6 {
		t.Errorf("matches = %d, want 6", qr.Matches)
	}
}

// TestBulkLoadReadsPartsAfterFirstStatus holds a bulk load's second
// part back until the first part's status line has arrived: the handler
// keeps reading parts while it streams status lines, so both commit.
func TestBulkLoadReadsPartsAfterFirstStatus(t *testing.T) {
	_, ts := newTestServer(t, nil)
	pr, pw := io.Pipe()
	mw := multipart.NewWriter(pw)
	sent := make(chan error, 1)
	go func() {
		// The second part's header ends the first part.
		part, err := mw.CreateFormFile("ptdf", "first")
		if err == nil {
			_, err = part.Write([]byte(ptdfDoc("first", 2)))
		}
		if err == nil {
			_, err = mw.CreateFormFile("ptdf", "second")
		}
		sent <- err
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/load?j=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	lines := make(chan LoadDocStatus, 3) // every line the load sends: two documents and the summary
	go func() {
		defer close(lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var st LoadDocStatus
			if json.Unmarshal(sc.Bytes(), &st) == nil {
				lines <- st
			}
		}
	}()
	select {
	case st := <-lines:
		if st.Doc != "first" || st.Error != "" {
			t.Fatalf("first status line = %+v", st)
		}
	case <-time.After(time.Until(giveUpAt(t))): // a liveness wait, not a bound on speed
		pw.CloseWithError(io.ErrUnexpectedEOF)
		t.Fatal("no status line for the first part while the rest of the body was held back")
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(pw, ptdfDoc("second", 2)); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	var got []LoadDocStatus
	for st := range lines {
		got = append(got, st)
	}
	if len(got) != 2 || got[0].Doc != "second" || got[0].Error != "" || !got[1].Done || got[1].Docs != 2 || got[1].Failed != 0 {
		t.Errorf("status lines after the first: %+v, want the second document's and a summary of 2 loaded", got)
	}
}

// TestBulkLoadConcurrentWithQuery is the race-detector e2e for the bulk
// write path: multipart ingests with parallel decoding race against
// /v1/query readers, and the final counts must be exact.
func TestBulkLoadConcurrentWithQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	const loaders, docsPer = 4, 3
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			docs := map[string]string{}
			var order []string
			for d := 0; d < docsPer; d++ {
				name := fmt.Sprintf("l%d-d%d", l, d)
				docs[name] = ptdfDoc(name, 2)
				order = append(order, name)
			}
			body, ct := multipartBody(t, docs, order)
			for _, st := range postMultipart(t, ts.URL+"/v1/load?j=4", body, ct) {
				if st.Error != "" {
					t.Errorf("loader %d: %s", l, st.Error)
				}
			}
		}(l)
	}
	// Queriers hammer the read path while the loaders run.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qr QueryResponse
				postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, &qr)
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()

	var qr QueryResponse
	code, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Families: []string{"type=application"}}, &qr)
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if want := loaders * docsPer * 2; qr.Matches != want {
		t.Errorf("matches = %d, want %d", qr.Matches, want)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, ptdfDoc("st", 3))
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.APIVersion != APIVersion {
		t.Errorf("api_version = %q", sr.APIVersion)
	}
	if sr.Store.Results != 3 || sr.Store.Executions != 1 {
		t.Errorf("store stats = %+v", sr.Store)
	}
	if sr.Engine.Generation == 0 {
		t.Error("engine stats missing generation")
	}
}

const compareDoc = `Application app
Execution ea app
Execution eb app
Resource /app application
Resource /ea execution ea
Resource /eb execution eb
PerfResult ea /app,/ea(primary) t "wall time" 100 seconds
PerfResult eb /app,/eb(primary) t "wall time" 150 seconds
`

func TestCompareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, compareDoc)

	resp, err := http.Get(ts.URL + "/v1/compare?a=ea&b=eb")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var cr CompareResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.APIVersion != APIVersion || cr.ExecA != "ea" || cr.ExecB != "eb" {
		t.Errorf("header fields = %+v", cr)
	}
	if cr.Summary.Paired != 1 {
		t.Fatalf("summary = %+v", cr.Summary)
	}
	if len(cr.Pairs) != 1 || cr.Pairs[0].A != 100 || cr.Pairs[0].B != 150 {
		t.Errorf("pairs = %+v", cr.Pairs)
	}
	if cr.Pairs[0].Ratio != 1.5 {
		t.Errorf("ratio = %v", cr.Pairs[0].Ratio)
	}
	if len(cr.Regressions) != 1 || cr.Regressions[0].Percent != 50 {
		t.Errorf("regressions = %+v", cr.Regressions)
	}
	if len(cr.Bottlenecks) != 1 {
		t.Errorf("bottlenecks = %+v", cr.Bottlenecks)
	}

	// Unknown executions are 404; bad parameters are 400.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/compare?a=ghost&b=eb", http.StatusNotFound},
		{"/v1/compare?a=ea", http.StatusBadRequest},
		{"/v1/compare?a=ea&b=eb&threshold=junk", http.StatusBadRequest},
		{"/v1/compare?a=ea&b=eb&bogus=1", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestErrorStatusMapping pins the sentinel-error → HTTP status contract:
// 404 for missing entities, 409 for identity conflicts, 400 for bad
// input.
func TestErrorStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, nil)
	loadDoc(t, ts.URL, "Application a\nExecution e1 a\n")

	post := func(doc string) int {
		resp, err := http.Post(ts.URL+"/v1/load", "text/plain", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Redefining e1 under a different application is an identity conflict.
	if code := post("Application b\nExecution e1 b\n"); code != http.StatusConflict {
		t.Errorf("conflicting load = %d, want 409", code)
	}
	// A dangling reference inside a document is the document's fault: 400.
	if code := post("PerfResult ghost /x(primary) t m 1 u\n"); code != http.StatusBadRequest {
		t.Errorf("dangling reference load = %d, want 400", code)
	}
	if code := post("Garbage\n"); code != http.StatusBadRequest {
		t.Errorf("bad syntax load = %d, want 400", code)
	}
}

// TestStrictRequestDecoding pins the v1 contract that unknown request
// fields are rejected rather than silently ignored.
func TestStrictRequestDecoding(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"families": ["type=application"], "tpyo": true}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: status = %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "tpyo") {
		t.Errorf("error does not name the unknown field: %q", er.Error)
	}
	if er.APIVersion != APIVersion {
		t.Errorf("api_version = %q", er.APIVersion)
	}
}

// TestAPIVersionStamped spot-checks that every v1 response body carries
// the api_version field.
func TestAPIVersionStamped(t *testing.T) {
	_, ts := newTestServer(t, nil)
	lr := loadDoc(t, ts.URL, ptdfDoc("ver", 1))
	if lr.APIVersion != APIVersion {
		t.Errorf("load api_version = %q", lr.APIVersion)
	}
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/reports/executions"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			APIVersion string `json:"api_version"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.APIVersion != APIVersion {
			t.Errorf("%s api_version = %q", path, body.APIVersion)
		}
	}
}
