package selfmon

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// TestWriteDocRoundTrip checks that one sample's PTdf document loads
// cleanly into a fresh store with its execution, attributes, and
// results intact.
func TestWriteDocRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	err := WriteDoc(&buf, DocSpec{App: "ptserved", Exec: "ptserved-sample-000001", Host: "h1"}, Sample{
		Metrics: []Metric{
			{Name: "request latency mean", Value: 0.012, Units: "seconds"},
			{Name: "requests", Value: 42, Units: "requests"},
		},
		Attrs: [][2]string{{"in_flight", "3"}, {"goroutines", "25"}},
	})
	if err != nil {
		t.Fatalf("WriteDoc: %v", err)
	}
	st, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := st.LoadPTdf(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sample doc does not load: %v\n%s", err, buf.String())
	}
	if stats.Executions != 1 || stats.Results != 2 || stats.Attributes != 2 {
		t.Errorf("load stats = %+v, want 1 execution, 2 results, 2 attributes", stats)
	}
}

// fakeCollect builds a Collect hook whose latency and planted attribute
// are swappable mid-run, standing in for a server whose recent requests
// turned slow.
type fakeCollect struct {
	latency float64
	slow    int
}

func (f *fakeCollect) sample() Sample {
	return Sample{
		Metrics: []Metric{
			{Name: "request latency mean", Value: f.latency, Units: "seconds"},
			{Name: "requests", Value: 10, Units: "requests"},
		},
		Attrs: [][2]string{
			{"slow_traces_delta", strconv.Itoa(f.slow)},
			{"in_flight", "2"},
		},
	}
}

// TestSamplerDiagnosePlantedSlowdown is the self-diagnosis loop
// end-to-end at package level: fast baseline samples, then slow recent
// ones with a correlated attribute — the diagnosis must measure the
// slowdown and rank a discriminating predicate over the attribute.
func TestSamplerDiagnosePlantedSlowdown(t *testing.T) {
	fc := &fakeCollect{latency: 0.01, slow: 0}
	s, err := New(Config{Collect: fc.sample, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.SampleNow(); err != nil {
			t.Fatalf("baseline sample %d: %v", i, err)
		}
	}
	fc.latency, fc.slow = 0.2, 3 // the slowdown lands
	for i := 0; i < 3; i++ {
		if err := s.SampleNow(); err != nil {
			t.Fatalf("slow sample %d: %v", i, err)
		}
	}
	rep, err := s.Diagnose(context.Background(), 3)
	if err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	if rep.Samples != 9 || len(rep.Baseline) != 6 || len(rep.Recent) != 3 {
		t.Fatalf("window split = %d/%d/%d, want 9/6/3",
			rep.Samples, len(rep.Baseline), len(rep.Recent))
	}
	res := rep.Result
	if res.PerfB <= res.PerfA {
		t.Errorf("PerfB = %g <= PerfA = %g, want recent slower", res.PerfB, res.PerfA)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no discriminating predicates found for a planted slowdown")
	}
	if got := res.Explanations[0].Pred.Attr; got != "slow_traces_delta" {
		t.Errorf("top predicate attr = %q, want slow_traces_delta (all: %v)",
			got, res.Explanations)
	}
}

// TestSamplerWindowSlide checks that the side store is rebuilt once the
// window fills and diagnosis keeps working over the retained slice.
func TestSamplerWindowSlide(t *testing.T) {
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.SampleNow(); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Samples != 10 || st.Retained != 4 || st.Rebuilds == 0 {
		t.Errorf("stats = %+v, want 10 samples, 4 retained, rebuilds > 0", st)
	}
	rep, err := s.Diagnose(context.Background(), 0)
	if err != nil {
		t.Fatalf("diagnose after slide: %v", err)
	}
	if rep.Samples != 4 {
		t.Errorf("diagnose saw %d samples, want the retained 4", rep.Samples)
	}
}

// TestSamplerRebuildClosesReplacedStores: every store runs a compactor
// goroutine, so a rebuild closes the store it replaces — the goroutine
// count after three windows of samples is the count after one — while a
// reader that took the old store keeps its stale view; Stop closes the
// last one.
func TestSamplerRebuildClosesReplacedStores(t *testing.T) {
	const window = 4
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	sample := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.SampleNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sample(window)
	s.mu.Lock()
	old := s.store
	s.mu.Unlock()
	before := runtime.NumGoroutine()
	sample(2 * window)
	if after := runtime.NumGoroutine(); after != before || s.Stats().Rebuilds == 0 {
		t.Fatalf("%d goroutines after %d rebuilds, %d before them", after, s.Stats().Rebuilds, before)
	}
	if got := old.Stats().Executions; got != window+1 { // the sample that overflowed it landed first
		t.Fatalf("the replaced store reads %d executions, want its %d", got, window+1)
	}
	s.Stop()
	if err := s.SampleNow(); err == nil {
		t.Fatal("the side store takes writes after Stop")
	}
}

// TestDiagnoseNeedsTwoSamples pins the sentinel error before the window
// has anything to split.
func TestDiagnoseNeedsTwoSamples(t *testing.T) {
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diagnose(context.Background(), 0); err == nil {
		t.Fatal("expected ErrNotEnoughSamples with 0 samples")
	}
	if err := s.SampleNow(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Diagnose(context.Background(), 0)
	if err == nil {
		t.Fatal("expected ErrNotEnoughSamples with 1 sample")
	}
}

// TestSamplerStartStop exercises the background loop briefly.
func TestSamplerStartStop(t *testing.T) {
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	deadline := time.After(2 * time.Second)
	for s.Stats().Samples == 0 {
		select {
		case <-deadline:
			t.Fatal("background loop took no samples in 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.Stop()
	after := s.Stats().Samples
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats().Samples; got != after {
		t.Errorf("samples kept accruing after Stop: %d -> %d", after, got)
	}
	// Stop again is safe.
	s.Stop()
}
