package obs

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2, 5} {
		h.Observe(v)
	}
	bounds, cum, total := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Cumulative: <=0.1 holds 0.05 and 0.1; <=0.5 adds 0.3; <=1 adds 0.7;
	// +Inf adds 2 and 5.
	want := []uint64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.3+0.7+2+5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	// 10 observations uniformly in (0,1]: median interpolates inside the
	// first bucket.
	for i := 1; i <= 10; i++ {
		h.Observe(float64(i) / 10)
	}
	if q := h.Quantile(0.5); math.Abs(q-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5", q)
	}
	if q := h.Quantile(1); math.Abs(q-1) > 1e-9 {
		t.Errorf("p100 = %g, want 1", q)
	}
	// An observation beyond the last bound clamps to it.
	h.Observe(100)
	if q := h.Quantile(1); q != 4 {
		t.Errorf("p100 with +Inf sample = %g, want 4 (clamped)", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-80) > 1e-6 {
		t.Errorf("Sum = %g, want 80", h.Sum())
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRing[int](3)
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh ring Len=%d Cap=%d", r.Len(), r.Cap())
	}
	for i := 1; i <= 5; i++ {
		v := i
		r.Put(&v)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Snapshot(0)
	if len(got) != 3 || *got[0] != 5 || *got[1] != 4 || *got[2] != 3 {
		vals := make([]int, len(got))
		for i, p := range got {
			vals[i] = *p
		}
		t.Fatalf("Snapshot = %v, want [5 4 3] (newest first, oldest overwritten)", vals)
	}
	if got := r.Snapshot(2); len(got) != 2 || *got[0] != 5 {
		t.Fatalf("Snapshot(2) wrong: len=%d", len(got))
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := g*1000 + i
				r.Put(&v)
				if i%100 == 0 {
					r.Snapshot(0)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Errorf("Len = %d, want 16", r.Len())
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	ctx, root := tr.StartTrace(context.Background(), "req-1", "/v1/query")
	ctx2, s1 := StartSpan(ctx, "datastore.filter")
	s1.Annotate("cache", "miss")
	_, s2 := StartSpan(ctx2, "materialize.fetch")
	s2.Attach("profile") // any span sets its trace's one slot
	s2.End()
	s1.End()
	root.End()

	data, ok := tr.Find("req-1")
	if !ok {
		t.Fatal("trace not found after root End")
	}
	if data.Name != "/v1/query" || len(data.Spans) != 3 {
		t.Fatalf("trace = %+v", data)
	}
	if data.Spans[0].Parent != -1 || data.Spans[1].Parent != 0 || data.Spans[2].Parent != 1 {
		t.Errorf("parent chain wrong: %+v", data.Spans)
	}
	if data.Spans[1].Name != "datastore.filter" {
		t.Errorf("span name = %q", data.Spans[1].Name)
	}
	if len(data.Spans[1].Annotations) != 1 || data.Spans[1].Annotations[0].Value != "miss" {
		t.Errorf("annotations = %+v", data.Spans[1].Annotations)
	}
	if data.Attachment != "profile" {
		t.Errorf("Data().Attachment = %v, want profile", data.Attachment)
	}
	recent := tr.Traces(false)
	if len(recent) != 1 || recent[0].SpanCount() != 3 || recent[0].Attachment() != "profile" {
		t.Errorf("recent ring = %d traces, want 1 of 3 spans carrying its attachment", len(recent))
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatal("expected nil span without a trace in context")
	}
	if ctx2 != ctx {
		t.Fatal("context should be unchanged without a trace")
	}
	// The nil handle must absorb every call.
	s.Annotate("k", "v")
	s.Attach("v")
	s.End()
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	ctx, root := tr.StartTrace(context.Background(), "req-c", "/v1/load")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, s := StartSpan(ctx, fmt.Sprintf("worker-%d", g))
				s.Annotate("i", fmt.Sprint(i))
				s.End()
			}
		}(g)
	}
	wg.Wait()
	root.End()
	data, ok := tr.Find("req-c")
	if !ok {
		t.Fatal("trace not found")
	}
	if len(data.Spans) != 1+8*50 {
		t.Fatalf("spans = %d, want %d", len(data.Spans), 1+8*50)
	}
	_, completed, _, spans := tr.Stats()
	if completed != 1 || spans != 1+8*50 {
		t.Errorf("Stats completed=%d spans=%d", completed, spans)
	}
}

func TestTracerSlow(t *testing.T) {
	var gotSlow *Trace
	tr := NewTracer(4, time.Nanosecond, func(t *Trace) { gotSlow = t })
	ctx, root := tr.StartTrace(context.Background(), "slow-1", "/v1/results")
	_, s := StartSpan(ctx, "sleepy")
	// Any span that lasts the sleep is past the 1ns threshold, however
	// loaded the host: the sleep is a lower bound and cannot flake.
	time.Sleep(time.Millisecond)
	s.End()
	root.End()
	if gotSlow == nil || gotSlow.ID() != "slow-1" {
		t.Fatal("onSlow callback not fired")
	}
	slow := tr.Traces(true)
	if len(slow) != 1 || !slow[0].Data().Slow || slow[0].Duration() < time.Millisecond {
		t.Fatalf("slow ring = %+v", slow)
	}
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ops_total", "Total operations.")
	c.Add(7)
	g := r.Gauge("app_temperature", "Current temperature.")
	g.Add(2.5)
	r.CounterFunc("app_func_total", "From a callback.", func() uint64 { return 3 })
	v := r.CounterVec("app_requests_total", "Requests by route and code.", "route", "code")
	v.With("/v1/load", "200").Add(2)
	v.With("/v1/load", "400").Inc()
	hv := r.HistogramVec("app_latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	h := hv.With("/v1/load")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_func_total From a callback.
# TYPE app_func_total counter
app_func_total 3
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{route="/v1/load",le="0.1"} 1
app_latency_seconds_bucket{route="/v1/load",le="1"} 2
app_latency_seconds_bucket{route="/v1/load",le="+Inf"} 3
app_latency_seconds_sum{route="/v1/load"} 3.55
app_latency_seconds_count{route="/v1/load"} 3
# HELP app_ops_total Total operations.
# TYPE app_ops_total counter
app_ops_total 7
# HELP app_requests_total Requests by route and code.
# TYPE app_requests_total counter
app_requests_total{route="/v1/load",code="200"} 2
app_requests_total{route="/v1/load",code="400"} 1
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 2.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryIdempotentAndConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("re-registering a counter should return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration should panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestRuntimeMetricsReadFreshPerScrape: two scrapes a GC apart, well
// within a second, read different GC cycle counts — a per-window rate
// over short windows reads the cycles that ran in it.
func TestRuntimeMetricsReadFreshPerScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	cycles := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "go_gc_cycles_total ") {
				return line
			}
		}
		t.Fatalf("no go_gc_cycles_total in\n%s", b.String())
		return ""
	}
	start := time.Now()
	before := cycles()
	runtime.GC()
	after := cycles()
	if time.Since(start) < time.Second && before == after {
		t.Fatalf("a scrape after runtime.GC() still reads %q", after)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("runtime metrics missing %s", want)
		}
	}
}
