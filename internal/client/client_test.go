package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perftrack/internal/server"
)

// flakyHandler fails the first n requests with the given status, then
// delegates to ok.
func flakyHandler(n int, status int, header http.Header, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			for k, vs := range header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "transient", RequestID: "rid-1"})
			return
		}
		ok(w, r)
	}, &calls
}

func fastClient(url string) *Client {
	return &Client{BaseURL: url, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

func TestRetriesTransient5xxThenSucceeds(t *testing.T) {
	h, calls := flakyHandler(2, http.StatusInternalServerError, nil, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.HealthResponse{Status: "ok", Generation: 7})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	hr, err := fastClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Generation != 7 {
		t.Errorf("health = %+v", hr)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
}

// shortLen is a reader that reports fewer bytes than it holds.
type shortLen struct{ *strings.Reader }

func (r shortLen) Len() int { return r.Reader.Len() / 2 }

// TestRetries429AndReplaysLoadBody loads one document through each kind
// of reader Load sizes its buffer from, through one it cannot size and
// through one that under-reports its length, against a server that sheds
// the first attempt: both attempts carry the whole document, byte for
// byte.
func TestRetries429AndReplaysLoadBody(t *testing.T) {
	doc := strings.Repeat("PerfResult e /e/p0(primary) tool metric 1.5 seconds\n", 2000)
	readers := map[string]func() io.Reader{
		"bytes.Reader":   func() io.Reader { return bytes.NewReader([]byte(doc)) },
		"bytes.Buffer":   func() io.Reader { return bytes.NewBufferString(doc) },
		"strings.Reader": func() io.Reader { return strings.NewReader(doc) },
		"unsized":        func() io.Reader { return io.MultiReader(strings.NewReader(doc)) },
		"short Len":      func() io.Reader { return shortLen{strings.NewReader(doc)} },
	}
	for name, reader := range readers {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var bodies []string
			h, calls := flakyHandler(1, http.StatusTooManyRequests, nil, func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(server.LoadResponse{Generation: 1})
			})
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				bodies = append(bodies, string(body))
				mu.Unlock()
				h(w, r)
			}))
			defer ts.Close()
			if _, err := fastClient(ts.URL).Load(context.Background(), reader()); err != nil {
				t.Fatal(err)
			}
			if calls.Load() != 2 {
				t.Errorf("calls = %d, want 2", calls.Load())
			}
			for i, body := range bodies {
				if body != doc {
					t.Errorf("attempt %d sent %d bytes, not the %d-byte document", i+1, len(body), len(doc))
				}
			}
		})
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	hdr := http.Header{}
	hdr.Set("Retry-After", "1")
	h, _ := flakyHandler(1, http.StatusTooManyRequests, hdr, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.QueryResponse{Matches: 3})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	start := time.Now()
	qr, err := fastClient(ts.URL).Query(context.Background(), []string{"type=application"})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Matches != 3 {
		t.Errorf("matches = %d", qr.Matches)
	}
	// Backoff would be ~ms; Retry-After forces >= 1s. A lower bound on a
	// wait the client must make cannot fail a correct client, however
	// loaded the host.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("Retry-After ignored: retried after %s", elapsed)
	}
}

func TestDoesNotRetryBadRequest(t *testing.T) {
	h, calls := flakyHandler(100, http.StatusBadRequest, nil, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	_, err := fastClient(ts.URL).Query(context.Background(), []string{"nonsense"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if apiErr.Message != "transient" || apiErr.RequestID != "rid-1" {
		t.Errorf("error body not decoded: %+v", apiErr)
	}
	if calls.Load() != 1 {
		t.Errorf("400 was retried: %d calls", calls.Load())
	}
}

func TestGivesUpAfterMaxRetries(t *testing.T) {
	h, calls := flakyHandler(100, http.StatusServiceUnavailable, nil, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastClient(ts.URL)
	c.MaxRetries = 2
	_, err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", calls.Load())
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that dies after its first (failed) response: the port is
	// then closed, so the retry hits a connection error and must still be
	// retried until MaxRetries runs out.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	url := ts.URL
	ts.Close()

	c := fastClient(url)
	c.MaxRetries = 2
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("expected error against closed port")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Errorf("connection error misreported as API error: %v", err)
	}
}

func TestContextCancelsRetryLoop(t *testing.T) {
	h, calls := flakyHandler(1000, http.StatusServiceUnavailable, nil, nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := fastClient(ts.URL)
	c.BaseBackoff = 20 * time.Millisecond
	c.MaxRetries = 1000
	_, err := c.Health(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Counted, not timed: each retry waits at least the 20ms backoff, so
	// a loop that stops at the deadline makes two calls or so however
	// loaded the host, and one that ignored it would go on to 1000.
	if calls.Load() > 10 {
		t.Errorf("calls = %d despite 30ms deadline", calls.Load())
	}
}

func TestBackoffGrowsAndJitters(t *testing.T) {
	c := &Client{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 5; attempt++ {
		d := c.backoff(attempt, "")
		want := c.BaseBackoff << (attempt - 1)
		if want > c.MaxBackoff {
			want = c.MaxBackoff
		}
		if d <= 0 || d > want {
			t.Errorf("attempt %d: backoff %s outside (0, %s]", attempt, d, want)
		}
		if d < want/2 {
			t.Errorf("attempt %d: backoff %s below half the target %s", attempt, d, want)
		}
		if want > prevMax {
			prevMax = want
		}
	}
	// Retry-After dominates the computed backoff.
	if d := c.backoff(1, "2"); d < 2*time.Second {
		t.Errorf("Retry-After backoff = %s, want >= 2s", d)
	}
}

// TestCountersTrackRetriesAndBackoff pins the client's own
// instrumentation: each attempt counts as a request, each retry counts a
// backoff sleep, and the snapshot is cumulative across calls.
func TestCountersTrackRetriesAndBackoff(t *testing.T) {
	h, _ := flakyHandler(2, http.StatusInternalServerError, nil, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.HealthResponse{Status: "ok"})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := fastClient(ts.URL)
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.Counters()
	if st.Requests != 3 || st.Retries != 2 || st.BackoffSleeps != 2 {
		t.Errorf("counters = %+v, want 3 requests / 2 retries / 2 sleeps", st)
	}
	if st.BackoffTotal <= 0 {
		t.Errorf("backoff total = %s, want > 0", st.BackoffTotal)
	}
	if st.StreamAborts != 0 {
		t.Errorf("stream aborts = %d, want 0", st.StreamAborts)
	}

	// A second, clean call adds exactly one request.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters().Requests; got != 4 {
		t.Errorf("requests after clean call = %d, want 4", got)
	}
}

// TestCountersTrackStreamAborts: a result stream truncated before its
// summary line counts as an abort.
func TestCountersTrackStreamAborts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"api_version":"v1","columns":["execution"],"total":1}` + "\n"))
		// No row, no Done line: the stream just ends.
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	_, err := c.ResultsStream(context.Background(), server.ResultsRequest{}, nil)
	if err == nil {
		t.Fatal("truncated stream did not error")
	}
	st := c.Counters()
	if st.StreamAborts != 1 || st.Requests != 1 {
		t.Errorf("counters = %+v, want 1 abort / 1 request", st)
	}
}
