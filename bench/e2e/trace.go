package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"perftrack/internal/client"
	"perftrack/internal/server"
)

// span is one timed interval of the traced run. Spans of one request
// share RequestID (also sent as X-Request-Id, so the server's own
// /v1/debug/traces entry carries the same identifier); Parent is the ID
// of the span that caused this one, -1 for a root.
type span struct {
	ID        int               `json:"id"`
	Parent    int               `json:"parent"`
	Name      string            `json:"name"`
	Layer     string            `json:"layer"`
	RequestID string            `json:"request_id,omitempty"`
	StartUS   float64           `json:"start_us"`
	EndUS     float64           `json:"end_us"`
	Attrs     map[string]string `json:"attrs,omitempty"`

	tr *tracer
}

// tracer keeps spans in memory; they are written once, at exit.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }

// start opens a span under parent (nil for a root).
func (t *tracer) start(parent *span, name, layer string) *span {
	s := &span{Parent: -1, Name: name, Layer: layer, tr: t, StartUS: t.us(time.Now())}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	if parent != nil {
		s.Parent = parent.ID
		s.RequestID = parent.RequestID
	}
	if layer == "client" {
		s.RequestID = fmt.Sprintf("e2e-%d", s.ID)
	}
	return s
}

// end closes the span; a nil span (untraced run) is a no-op.
func (s *span) end() {
	if s != nil {
		s.EndUS = s.tr.us(time.Now())
	}
}

// add records an already-measured interval as a child of parent, placed
// at the given offset from the parent's start. The layer replay uses it
// for components it timed by calling them directly.
func (t *tracer) add(parent *span, name, layer string, offset, dur time.Duration) *span {
	s := t.start(parent, name, layer)
	s.StartUS = parent.StartUS + float64(offset.Nanoseconds())/1e3
	s.EndUS = s.StartUS + float64(dur.Nanoseconds())/1e3
	return s
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Note  string  `json:"note"`
		Spans []*span `json:"spans"`
	}{
		Note:  "times are microseconds since the start of the traced run; parent -1 is a root; replay.* trees hold medians of direct calls into each layer's public functions",
		Spans: t.spans,
	}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestIDTransport stamps the traced run's span identifier on the
// request, which is how a client-side span and the server's own trace of
// the same request are joined.
type requestIDTransport struct{ next http.RoundTripper }

type requestIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func (t requestIDTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(requestIDKey{}).(string); ok {
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-Id", id)
	}
	return t.next.RoundTrip(req)
}

// scrape is the server's own counters at one instant: /v1/stats through
// the client, and the label-free samples of /metrics.
type scrape struct {
	stats   server.StatsResponse
	metrics map[string]float64
}

func takeScrape(cl *client.Client, baseURL string) (*scrape, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st, err := cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /v1/stats: %w", err)
	}
	// internal/client has no /metrics call: the exposition is Prometheus
	// text for scrapers, not part of the v1 API the workloads exercise.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	s := &scrape{stats: st, metrics: map[string]float64{}}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			s.metrics[name] = v
		}
	}
	return s, sc.Err()
}

// delta is a counter's growth between the two scrapes of a replicate.
func (r *replicate) delta(metric string) float64 {
	return r.after.metrics[metric] - r.before.metrics[metric]
}

// ratio is hits/(hits+misses), 0 when nothing was looked up — and 0 when
// either delta is not a plausible count, which is how a counter that
// wrapped below zero reads after the exposition's float round trip.
func ratio(hits, misses float64) float64 {
	const plausible = 1e15
	if hits < 0 || misses < 0 || hits > plausible || misses > plausible || hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
