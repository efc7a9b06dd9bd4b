package selfmon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
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
	stats, err := st.LoadPTdfCtx(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("sample doc does not load: %v\n%s", err, buf.String())
	}
	if stats.Executions != 1 || stats.Results != 2 || stats.Attributes != 2 {
		t.Errorf("load stats = %+v, want 1 execution, 2 results, 2 attributes", stats)
	}
}

// TestWriteDocBytes pins the document /v1/debug/selfptdf serves, with
// and without attributes.
func TestWriteDocBytes(t *testing.T) {
	spec := DocSpec{App: "ptserved", Exec: "ptserved-h1", Host: "h1", Comment: "self-profile"}
	for _, c := range []struct {
		sample Sample
		want   string
	}{{
		Sample{Metrics: []Metric{
			{Name: "/v1/query latency p50", Value: 0.0125, Units: "seconds"},
			{Name: "batch commits", Value: 3, Units: "batches"},
		}},
		"# self-profile\nApplication ptserved\nResourceType grid\nResourceType grid/machine\n" +
			"Execution ptserved-h1 ptserved\nResource /ptserved grid\nResource /ptserved/h1 grid/machine\n" +
			"PerfResult ptserved-h1 /ptserved/h1(primary) ptserved \"/v1/query latency p50\" 0.0125 seconds\n" +
			"PerfResult ptserved-h1 /ptserved/h1(primary) ptserved \"batch commits\" 3 batches\n",
	}, {
		Sample{
			Metrics: []Metric{{Name: "request latency mean", Value: 0.012, Units: "seconds"}},
			Attrs:   [][2]string{{"in_flight", "3"}, {"heap mb", "25"}},
		},
		"# self-profile\nApplication ptserved\nResourceType grid\nResourceType grid/machine\n" +
			"ResourceType execution\nExecution ptserved-h1 ptserved\nResource /ptserved grid\n" +
			"Resource /ptserved/h1 grid/machine\nResource /ptserved-h1 execution ptserved-h1\n" +
			"ResourceAttribute /ptserved-h1 in_flight 3 string\nResourceAttribute /ptserved-h1 \"heap mb\" 25 string\n" +
			"PerfResult ptserved-h1 /ptserved-h1,/ptserved/h1(primary) ptserved \"request latency mean\" 0.012 seconds\n",
	}} {
		var b bytes.Buffer
		if err := WriteDoc(&b, spec, c.sample); err != nil {
			t.Fatal(err)
		}
		if b.String() != c.want {
			t.Errorf("WriteDoc wrote\n%s\nwant\n%s", b.String(), c.want)
		}
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

// TestSamplerWindowSlide: the sampler keeps one side store for its life.
// Over three windows of samples the store and the goroutine count stay
// the same, and the store holds exactly the last window's executions and
// their results; diagnosis reads that window. Stop closes the store.
func TestSamplerWindowSlide(t *testing.T) {
	const window = 4
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SampleNow(); err != nil {
		t.Fatal(err)
	}
	store := s.store
	before := runtime.NumGoroutine()
	for i := 1; i < 3*window; i++ {
		if err := s.SampleNow(); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if after := runtime.NumGoroutine(); s.store != store || after != before {
		t.Fatalf("store replaced (%v) or %d goroutines, %d before", s.store != store, after, before)
	}
	if st := s.Stats(); st.Samples != 3*window || st.Retained != window || st.Errors != 0 {
		t.Errorf("stats = %+v, want %d samples, %d retained", st, 3*window, window)
	}
	execs, err := store.Executions()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 2*window + 1; i <= 3*window; i++ {
		want = append(want, fmt.Sprintf("ptserved-sample-%06d", i))
	}
	if !slices.Equal(execs, want) {
		t.Errorf("store holds executions %v, want %v", execs, want)
	}
	if got, perSample := store.Stats().Results, int64(len(fc.sample().Metrics)); got != window*perSample {
		t.Errorf("store holds %d results, want %d", got, window*perSample)
	}
	rep, err := s.Diagnose(context.Background(), 0)
	if err != nil {
		t.Fatalf("diagnose after slide: %v", err)
	}
	if rep.Samples != window {
		t.Errorf("diagnose saw %d samples, want the retained %d", rep.Samples, window)
	}
	s.Stop()
	if err := s.SampleNow(); err == nil {
		t.Fatal("the side store takes writes after Stop")
	}
}

// TestSamplerDiagnoseRacesSamples runs diagnoses while samples slide
// the window: a diagnosis reads the store under the sampler's read lock,
// so none fails but for want of samples.
func TestSamplerDiagnoseRacesSamples(t *testing.T) {
	fc := &fakeCollect{latency: 0.01}
	s, err := New(Config{Collect: fc.sample, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := s.SampleNow(); err != nil {
				t.Errorf("sample %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := s.Diagnose(context.Background(), 0); err != nil && !errors.Is(err, ErrNotEnoughSamples) {
				t.Errorf("diagnosis %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
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
	// A liveness wait, not a bound on speed: the loop has until the test's
	// deadline nears to take its first sample.
	giveUp := time.Now().Add(time.Minute)
	if d, ok := t.Deadline(); ok {
		giveUp = d.Add(-10 * time.Second)
	}
	for s.Stats().Samples == 0 {
		if time.Now().After(giveUp) {
			t.Fatal("background loop took no samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	after := s.Stats().Samples
	// Stop returns once the loop has exited, so no sample can follow it:
	// the sleep can only miss a Stop that returns early, never fail a
	// correct one.
	time.Sleep(10 * time.Millisecond)
	if got := s.Stats().Samples; got != after {
		t.Errorf("samples kept accruing after Stop: %d -> %d", after, got)
	}
	// Stop again is safe.
	s.Stop()
}
