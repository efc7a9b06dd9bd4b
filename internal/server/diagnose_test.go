package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/diagnose"
	"perftrack/internal/gen"
	"perftrack/internal/reldb"
)

// newFleetServer serves a store pre-loaded with a synthetic diagnosis
// fleet.
func newFleetServer(t *testing.T, spec gen.FleetSpec) (*gen.Fleet, *httptest.Server) {
	t.Helper()
	fleet, err := gen.FleetRecords(spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := store.NewBatch()
	for _, rec := range fleet.Records {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return fleet, ts
}

func TestDiagnoseEndpointRanksPlantedPredicate(t *testing.T) {
	fleet, ts := newFleetServer(t, gen.FleetSpec{Execs: 100, Seed: 7})
	req := DiagnoseRequest{ExecsA: fleet.Fast, ExecsB: fleet.Slow, Explain: true}
	var resp DiagnoseResponse
	code, raw := postJSON(t, ts.URL+"/v1/diagnose", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.APIVersion != APIVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	if strings.Contains(raw, "NaN") || strings.Contains(raw, "Inf") {
		t.Fatalf("response leaks non-finite floats:\n%s", raw)
	}
	if len(resp.Explanations) == 0 {
		t.Fatalf("no explanations: %s", raw)
	}
	top := resp.Explanations[0]
	if top.Predicate != "compiler = -O0" {
		t.Fatalf("top predicate = %q, want compiler = -O0", top.Predicate)
	}
	if top.Attr != "compiler" || top.Op != "=" || top.Value != "-O0" {
		t.Errorf("predicate parts = %q %q %q", top.Attr, top.Op, top.Value)
	}
	if top.Score <= 0.99 {
		t.Errorf("score = %v, want ~1", top.Score)
	}
	if resp.Ratio == nil || *resp.Ratio < 1.8 || *resp.Ratio > 2.2 {
		t.Errorf("ratio = %v, want ~2", resp.Ratio)
	}
	if len(resp.Bottlenecks) == 0 || resp.Bottlenecks[0].Metric != "wall clock time" {
		t.Errorf("bottlenecks = %+v", resp.Bottlenecks)
	}
	if len(resp.Trace) == 0 {
		t.Error("explain=true produced no trace")
	}
}

func TestDiagnoseEndpointErrors(t *testing.T) {
	fleet, ts := newFleetServer(t, gen.FleetSpec{Execs: 6, Seed: 1})
	post := func(body string) (int, string) {
		t.Helper()
		r, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r.StatusCode, buf.String()
	}
	for _, tt := range []struct {
		name string
		body string
		code int
	}{
		{"unknown execution", `{"exec_a":"` + fleet.Fast[0] + `","exec_b":"nope"}`, http.StatusNotFound},
		{"unknown field", `{"exec_a":"a","exec_b":"b","bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"exec_a":"a","exec_b":"b"} extra`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"missing side", `{"exec_a":"a"}`, http.StatusBadRequest},
		{"ambiguous side", `{"exec_a":"a","execs_a":["x"],"exec_b":"b"}`, http.StatusBadRequest},
		{"bad family", `{"families_a":["bogus=="],"exec_b":"` + fleet.Slow[0] + `"}`, http.StatusBadRequest},
	} {
		code, raw := post(tt.body)
		if code != tt.code {
			t.Errorf("%s: status %d, want %d: %s", tt.name, code, tt.code, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal([]byte(raw), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tt.name, raw)
		}
	}
}

// TestDiagnoseResponseNeverEmitsNaN proves the wire conversion by
// construction: a Result saturated with NaN and ±Inf round-trips through
// JSON with the undefined statistics as null.
func TestDiagnoseResponseNeverEmitsNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	res := &diagnose.Result{
		SideA: []string{"a"}, SideB: []string{"b"},
		PerfA: nan, PerfB: inf, Delta: nan, Ratio: nan,
		Explanations: []diagnose.Explanation{{
			Pred:  diagnose.Predicate{Attr: "k", Op: "=", Value: "v"},
			Score: 0.5, Effect: 0.5, Coverage: 1,
			MeanHold: nan, MeanNot: inf, Delta: nan, Ratio: nan,
		}},
		Bottlenecks: []diagnose.Bottleneck{{Metric: "m", MeanA: nan, MeanB: inf, Delta: nan}},
	}
	raw, err := json.Marshal(newDiagnoseResponse(res))
	if err != nil {
		t.Fatalf("marshal with NaN inputs: %v", err)
	}
	if bytes.Contains(raw, []byte("NaN")) || bytes.Contains(raw, []byte("Inf")) {
		t.Fatalf("non-finite float on the wire: %s", raw)
	}
	var back DiagnoseResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.PerfA != nil || back.Ratio != nil {
		t.Errorf("undefined perf fields survived: %+v", back)
	}
	if back.Explanations[0].MeanHold != nil || back.Explanations[0].Ratio != nil {
		t.Errorf("undefined explanation stats survived: %+v", back.Explanations[0])
	}
	if back.Explanations[0].Score != 0.5 {
		t.Errorf("finite field lost: %+v", back.Explanations[0])
	}
}

func TestAttributesEndpoint(t *testing.T) {
	_, ts := newFleetServer(t, gen.FleetSpec{Execs: 8, Seed: 2})
	get := func(url string, out any) (int, string) {
		t.Helper()
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		if out != nil && r.StatusCode == http.StatusOK {
			if err := json.Unmarshal(buf.Bytes(), out); err != nil {
				t.Fatalf("decode: %v\n%s", err, buf.String())
			}
		}
		return r.StatusCode, buf.String()
	}
	var resp AttributesResponse
	code, raw := get(ts.URL+"/v1/attributes", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.APIVersion != APIVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	byName := map[string]AttributeKey{}
	for _, k := range resp.Keys {
		byName[k.Name] = k
	}
	compiler, ok := byName["compiler"]
	if !ok {
		t.Fatalf("compiler key missing: %+v", resp.Keys)
	}
	if compiler.Distinct != 2 || compiler.Resources != 8 {
		t.Errorf("compiler = %+v", compiler)
	}
	clock, ok := byName["clock MHz"]
	if !ok {
		t.Fatalf("clock MHz key missing (machine attrs not listed)")
	}
	if !clock.Numeric || clock.Min == nil || clock.Max == nil {
		t.Errorf("clock MHz = %+v", clock)
	}

	// Prefix filter.
	resp = AttributesResponse{}
	code, raw = get(ts.URL+"/v1/attributes?prefix=comp", &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if len(resp.Keys) != 1 || resp.Keys[0].Name != "compiler" || resp.Prefix != "comp" {
		t.Errorf("prefix listing = %+v", resp)
	}

	// Unknown query parameter.
	code, _ = get(ts.URL+"/v1/attributes?bogus=1", nil)
	if code != http.StatusBadRequest {
		t.Errorf("unknown param status = %d, want 400", code)
	}
}

// abandonedCtx is the context of a request whose client goes away at the
// handler's at-th cancellation check: that check and every later one see
// context.Canceled. checks counts them all.
type abandonedCtx struct {
	context.Context
	at     int64
	checks atomic.Int64
	once   sync.Once
	done   chan struct{}
}

func (c *abandonedCtx) Done() <-chan struct{} { return c.done }

func (c *abandonedCtx) Err() error {
	if c.checks.Add(1) < c.at {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestDiagnoseCancelledMidExtractionStops: a /v1/diagnose whose client
// goes away while the executions' features are being read answers with
// the wrapped context.Canceled, and stops where it was. Each extraction
// worker and the column fold see the cancellation at their next block,
// so at most one check per goroutine follows the cancelling one and no
// execution not yet started is read; the handler and every worker exit.
func TestDiagnoseCancelledMidExtractionStops(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	fleet, err := gen.FleetRecords(gen.FleetSpec{Execs: 8*workers + 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := store.NewBatch()
	for _, rec := range fleet.Records {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(DiagnoseRequest{ExecsA: fleet.Fast, ExecsB: fleet.Slow})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx := &abandonedCtx{Context: context.Background(), at: 3, done: make(chan struct{})}
	rec := httptest.NewRecorder()
	srv.handleDiagnose(rec, httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body)).WithContext(ctx))

	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.HasSuffix(er.Error, ": "+context.Canceled.Error()) {
		t.Fatalf("status %d, body %s: want a wrapped %v", rec.Code, rec.Body, context.Canceled)
	}
	if after := ctx.checks.Load() - ctx.at; after > int64(workers) {
		t.Fatalf("%d cancellation checks after the cancelling one, want at most one per other goroutine (%d): the diagnosis went on reading executions", after, workers)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled diagnosis returned, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
