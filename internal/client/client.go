// Package client is the Go client for ptserved's v1 HTTP/JSON API. It
// shares its wire types with internal/server, supports contexts on every
// call, and retries transient failures (connection errors, 429, 5xx)
// with exponential backoff and jitter, honoring Retry-After.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/server"
)

// APIError is a non-2xx reply from the server, decoded from its JSON
// error body when possible.
type APIError struct {
	StatusCode int
	Message    string
	RequestID  string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("client: server returned %d: %s (request %s)", e.StatusCode, e.Message, e.RequestID)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// Unwrap maps the HTTP status class back onto the datastore's sentinel
// errors, so callers can errors.Is(err, datastore.ErrNotFound) (and
// ErrExists, ErrBadSpec) on a remote call exactly as they would on a
// local store.
func (e *APIError) Unwrap() error {
	switch e.StatusCode {
	case http.StatusNotFound:
		return datastore.ErrNotFound
	case http.StatusConflict:
		return datastore.ErrExists
	case http.StatusBadRequest:
		return datastore.ErrBadSpec
	}
	return nil
}

// retryable reports whether the failure class is worth another attempt:
// the server shed the request (429) or failed transiently (5xx).
func (e *APIError) retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// Client talks to one ptserved instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7075".
	BaseURL string

	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client

	// MaxRetries bounds attempts beyond the first; negative disables
	// retries. 0 means the default of 4.
	MaxRetries int

	// BaseBackoff seeds the exponential backoff (doubled per attempt, up
	// to MaxBackoff, plus up to 50% jitter). Zero values mean 100ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// ctrs instruments the client; snapshot with Counters.
	ctrs counters
}

// New returns a client with default retry policy.
func New(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	switch {
	case c.MaxRetries < 0:
		return 0
	case c.MaxRetries == 0:
		return 4
	}
	return c.MaxRetries
}

// backoff computes the sleep before retry attempt (1-based), honoring a
// Retry-After hint when the server supplied one. Jitter keeps a fleet of
// shed clients from re-arriving in lockstep; the result is never zero.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			return time.Duration(secs)*time.Second + time.Duration(rand.Int63n(int64(100*time.Millisecond))+1)
		}
	}
	base, max := c.BaseBackoff, c.MaxBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) + 1
}

// do sends one request, retrying transient failures. body is the raw
// request payload (replayed on each attempt); out, when non-nil, receives
// the decoded 200 response.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt, retryAfterOf(lastErr))
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), lastErr)
			}
			c.countRetry(wait)
		}
		err := c.doOnce(ctx, method, path, contentType, body, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), err)
		}
		if apiErr, ok := err.(*retryAfterError); ok {
			if !apiErr.APIError.retryable() || attempt >= c.retries() {
				return apiErr.APIError
			}
		} else if attempt >= c.retries() {
			return err
		}
		lastErr = err
	}
}

// retryAfterError carries the Retry-After hint alongside the API error.
type retryAfterError struct {
	*APIError
	retryAfter string
}

func retryAfterOf(err error) string {
	if ra, ok := err.(*retryAfterError); ok {
		return ra.retryAfter
	}
	return ""
}

func (c *Client) doOnce(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.countRequest()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		var er server.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			apiErr.Message, apiErr.RequestID = er.Error, er.RequestID
		}
		return &retryAfterError{APIError: apiErr, retryAfter: resp.Header.Get("Retry-After")}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("client: decode %s response: %w", path, err)
		}
	}
	return nil
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	return c.do(ctx, http.MethodPost, path, "application/json", body, out)
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) (server.HealthResponse, error) {
	var out server.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", "", nil, &out)
	return out, err
}

// Load streams a PTdf document to the server. The document is buffered
// in memory so transient failures can be retried with an identical body;
// the server applies it transactionally.
func (c *Client) Load(ctx context.Context, r io.Reader) (server.LoadResponse, error) {
	var out server.LoadResponse
	doc, err := readDoc(r)
	if err != nil {
		return out, fmt.Errorf("client: read PTdf document: %w", err)
	}
	err = c.do(ctx, http.MethodPost, "/v1/load", "text/plain", doc, &out)
	return out, err
}

// readDoc reads r to its end. A reader that reports how many bytes it
// holds (a *bytes.Reader, *bytes.Buffer or *strings.Reader) is read into
// one buffer sized for that many, where io.ReadAll would grow one by
// doubling; a reader holding more than it reports is still read whole.
func readDoc(r io.Reader) ([]byte, error) {
	sized, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	var doc bytes.Buffer
	doc.Grow(sized.Len() + bytes.MinRead) // ReadFrom wants MinRead bytes free before its last, empty read
	_, err := doc.ReadFrom(r)
	return doc.Bytes(), err
}

// Query evaluates a pr-filter (one spec per family) and returns the
// match counts.
func (c *Client) Query(ctx context.Context, families []string) (server.QueryResponse, error) {
	return c.QueryWith(ctx, server.QueryRequest{Families: families})
}

// QueryWith is Query over the full request shape: the unified selection
// (families plus execution restriction) and the explain flag.
func (c *Client) QueryWith(ctx context.Context, req server.QueryRequest) (server.QueryResponse, error) {
	var out server.QueryResponse
	err := c.postJSON(ctx, "/v1/query", req, &out)
	return out, err
}

// SQL runs one SELECT on the server's planner
// (POST /v1/sql). A malformed or unsupported statement unwraps to
// datastore.ErrBadSpec.
func (c *Client) SQL(ctx context.Context, req server.SQLRequest) (server.SQLResponse, error) {
	var out server.SQLResponse
	err := c.postJSON(ctx, "/v1/sql", req, &out)
	return out, err
}

// Results runs the two-step retrieval and returns the refined table.
func (c *Client) Results(ctx context.Context, req server.ResultsRequest) (server.ResultsResponse, error) {
	var out server.ResultsResponse
	err := c.postJSON(ctx, "/v1/results", req, &out)
	return out, err
}

// ResultsStream runs a streamed retrieval (POST /v1/results?stream=1):
// the server evaluates the pr-filter once, then materializes matching
// results in bounded chunks and emits one NDJSON row line each, so
// neither side holds a full-corpus retrieval in memory. onRow, when
// non-nil, observes each row as it arrives; the returned line is the
// final summary (Done=true with the emitted row count). Only Families,
// Metric, and Limit apply — the server rejects refinements that need
// the whole result set (sorting, added columns).
//
// ResultsStream never retries: rows already handed to onRow cannot be
// taken back, and replaying the stream would duplicate them.
func (c *Client) ResultsStream(ctx context.Context, req server.ResultsRequest, onRow func(server.ResultRow)) (server.ResultStreamLine, error) {
	var summary server.ResultStreamLine
	body, err := json.Marshal(req)
	if err != nil {
		return summary, fmt.Errorf("client: encode request: %w", err)
	}
	path := "/v1/results?stream=1"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return summary, fmt.Errorf("client: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	c.countRequest()
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return summary, fmt.Errorf("client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		var er server.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			apiErr.Message, apiErr.RequestID = er.Error, er.RequestID
		}
		return summary, apiErr
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawSummary := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st server.ResultStreamLine
		if err := json.Unmarshal(line, &st); err != nil {
			return summary, fmt.Errorf("client: decode result stream line: %w", err)
		}
		switch {
		case st.Error != "":
			c.countStreamAbort()
			return summary, fmt.Errorf("client: result stream failed mid-stream: %s", st.Error)
		case st.Done:
			summary, sawSummary = st, true
		case st.Row != nil:
			if onRow != nil {
				onRow(*st.Row)
			}
		}
	}
	if err := sc.Err(); err != nil {
		c.countStreamAbort()
		return summary, fmt.Errorf("client: read result stream: %w", err)
	}
	if !sawSummary {
		c.countStreamAbort()
		return summary, fmt.Errorf("client: result stream ended without a summary line")
	}
	return summary, nil
}

// Report fetches one name-list report: executions, metrics,
// applications, or tools.
func (c *Client) Report(ctx context.Context, name string) (server.ReportResponse, error) {
	var out server.ReportResponse
	err := c.do(ctx, http.MethodGet, "/v1/reports/"+name, "", nil, &out)
	return out, err
}

// Stats fetches the store summary and query-engine counters.
func (c *Client) Stats(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &out)
	return out, err
}

// CompareOptions refine a Compare call. Zero values mean the server
// defaults: all metrics, 10% threshold, top 10 bottlenecks.
type CompareOptions struct {
	Metric    string
	Threshold float64
	Top       int
}

// Compare fetches the server-side comparison of two executions
// (GET /v1/compare). An unknown execution surfaces as an *APIError that
// unwraps to datastore.ErrNotFound.
func (c *Client) Compare(ctx context.Context, execA, execB string, opts CompareOptions) (server.CompareResponse, error) {
	q := url.Values{}
	q.Set("a", execA)
	q.Set("b", execB)
	if opts.Metric != "" {
		q.Set("metric", opts.Metric)
	}
	if opts.Threshold > 0 {
		q.Set("threshold", strconv.FormatFloat(opts.Threshold, 'g', -1, 64))
	}
	if opts.Top > 0 {
		q.Set("top", strconv.Itoa(opts.Top))
	}
	var out server.CompareResponse
	err := c.do(ctx, http.MethodGet, "/v1/compare?"+q.Encode(), "", nil, &out)
	return out, err
}

// Diagnose runs an automated multi-execution diagnosis on the server
// (POST /v1/diagnose) and returns the ranked explanations. The request
// is idempotent, so transient failures retry like any other call; an
// unknown execution unwraps to datastore.ErrNotFound and a malformed
// spec to datastore.ErrBadSpec.
func (c *Client) Diagnose(ctx context.Context, req server.DiagnoseRequest) (server.DiagnoseResponse, error) {
	var out server.DiagnoseResponse
	err := c.postJSON(ctx, "/v1/diagnose", req, &out)
	return out, err
}

// Attributes lists attribute keys and their value domains
// (GET /v1/attributes), optionally filtered by name prefix.
func (c *Client) Attributes(ctx context.Context, prefix string) (server.AttributesResponse, error) {
	return c.AttributesPage(ctx, prefix, 0, "")
}

// AttributesPage is Attributes with pagination: limit bounds the page
// (0 = everything) and cursor resumes from a prior page's NextCursor.
// The response carries the next cursor while keys remain.
func (c *Client) AttributesPage(ctx context.Context, prefix string, limit int, cursor string) (server.AttributesResponse, error) {
	q := url.Values{}
	if prefix != "" {
		q.Set("prefix", prefix)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	path := "/v1/attributes"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out server.AttributesResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &out)
	return out, err
}

// BatchDoc names one PTdf document for LoadBatch.
type BatchDoc struct {
	Name string
	R    io.Reader
}

// LoadBatch streams several PTdf documents to the server in one
// multipart POST /v1/load. The server decodes them in parallel (workers
// hints the parallelism; 0 lets the server pick) and commits each
// document transactionally in order, streaming back one NDJSON status
// line per document. onDoc, when non-nil, observes each per-document
// line as it arrives; the returned LoadDocStatus is the final summary
// line (Done=true, with totals and the failed-document count).
//
// LoadBatch never retries: by the time a failure is visible some
// documents may already have committed, and replaying the stream would
// double-apply them. Callers retry per document using the statuses.
func (c *Client) LoadBatch(ctx context.Context, docs []BatchDoc, workers int, onDoc func(server.LoadDocStatus)) (server.LoadDocStatus, error) {
	var summary server.LoadDocStatus
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for i, d := range docs {
		name := d.Name
		if name == "" {
			name = fmt.Sprintf("doc-%d", i+1)
		}
		part, err := mw.CreateFormFile("ptdf", name)
		if err != nil {
			return summary, fmt.Errorf("client: build multipart body: %w", err)
		}
		if _, err := io.Copy(part, d.R); err != nil {
			return summary, fmt.Errorf("client: read document %q: %w", name, err)
		}
	}
	if err := mw.Close(); err != nil {
		return summary, fmt.Errorf("client: build multipart body: %w", err)
	}

	path := "/v1/load"
	if workers > 0 {
		path += "?j=" + strconv.Itoa(workers)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, &body)
	if err != nil {
		return summary, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	c.countRequest()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return summary, fmt.Errorf("client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
		var er server.ErrorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			apiErr.Message, apiErr.RequestID = er.Error, er.RequestID
		}
		return summary, apiErr
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawSummary := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var st server.LoadDocStatus
		if err := json.Unmarshal(line, &st); err != nil {
			c.countStreamAbort()
			return summary, fmt.Errorf("client: decode load status line: %w", err)
		}
		if st.Done {
			summary, sawSummary = st, true
			continue
		}
		if onDoc != nil {
			onDoc(st)
		}
	}
	if err := sc.Err(); err != nil {
		c.countStreamAbort()
		return summary, fmt.Errorf("client: read load status stream: %w", err)
	}
	if !sawSummary {
		c.countStreamAbort()
		return summary, fmt.Errorf("client: load status stream ended without a summary line")
	}
	return summary, nil
}
