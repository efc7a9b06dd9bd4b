package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

// inprocLauncher serves a store from this process, so the smoke pass
// needs no child. "Killing" it closes the listener and the engine
// without the server's drain-and-checkpoint shutdown.
type inprocLauncher struct{}

func (inprocLauncher) start(dir string) (*instance, error) {
	eng, err := reldb.Open(reldb.KindSegment, dir)
	if err != nil {
		return nil, err
	}
	store, err := datastore.Open(eng)
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Store: store, SelfMonInterval: -1})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	var once sync.Once
	return &instance{baseURL: ts.URL, pid: os.Getpid(), stop: func() {
		once.Do(func() {
			ts.Close()
			eng.Close()
		})
	}}, nil
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the benchmark's interface to whatever runs it; it
// must list exactly what the code emits.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", m.Paths)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the op lists are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why == "" || len(m.Workloads[i].Why) > 200 {
			t.Errorf("workload %d is %q with a %d-char why, want %q with a why of at most 200", i, m.Workloads[i].Name, len(m.Workloads[i].Why), w.name)
		}
	}
	check := func(what string, listed []manifestMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, code has %d", what, len(listed), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s metric %d is %+v, code says %+v", what, i, l, d)
			}
			if !nameRE.MatchString(l.Name) || !unitRE.MatchString(l.Unit) || seen[l.Name] {
				t.Errorf("%s metric %q (unit %q) is malformed or listed twice", what, l.Name, l.Unit)
			}
			seen[l.Name] = true
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %q: bound %v, code says %v (and at most 0.25)", what, l.Name, l.Bound, d.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s metric %q carries a bound", what, l.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer(), false)
}

func sameNames(t *testing.T, what string, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	var g, w []string
	for name, v := range got {
		g = append(g, name)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s is %v", what, name, v.Value)
		}
	}
	for _, d := range defs {
		w = append(w, d.Name)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d metrics emitted, %d declared", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: emitted %q where %q is declared", what, g[i], w[i])
		}
	}
}

// A smoke-sized pass of all four workloads, then of the traced run,
// against an in-process server on a 2-execution corpus: every answer
// must match the oracle and exactly the declared metrics must come out.
func TestSmokeAllWorkloads(t *testing.T) {
	rn := &runner{launch: inprocLauncher{}, sz: testSizing, workDir: t.TempDir()}
	var plans []*plan
	for _, w := range workloads {
		plans = append(plans, newPlan(w, rn.sz, 1, 1, 1))
	}
	runs, err := rn.runSet(plans, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range runs {
		rep := wr.report()
		if rep.Failed != 0 || rep.Attempted < len(wr.plan.measured) {
			t.Errorf("%s: %d of %d ops failed: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Failures)
		}
		sameNames(t, rep.Workload, rep.Metrics, endToEnd)
		sameNames(t, rep.Workload+" (ungated)", rep.Timing, timing)
		for _, set := range []map[string]metricValue{rep.Metrics, rep.Timing} {
			for name, v := range set {
				if v.Value <= 0 {
					t.Errorf("%s: %s = %v; end-to-end metrics are never zero", rep.Workload, name, v.Value)
				}
			}
		}
		if rep.OpsByKind[wr.plan.w.primary].Samples == 0 {
			t.Errorf("%s: no samples of the primary op %s", rep.Workload, wr.plan.w.primary)
		}
	}

	out := t.TempDir()
	res, err := rn.traceRun(1, 1, out, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("traced run: %d of %d ops failed: %v", res.failed, res.attempted, res.failures)
	}
	sameNames(t, "traced run", values(res.metrics, perLayer()), perLayer())
	for name := range res.metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("per-layer metric name %q is malformed", name)
		}
	}
	for _, d := range perLayer() {
		if _, ok := res.metrics[d.Name]; !ok {
			t.Errorf("traced run measured nothing for %s", d.Name)
		}
	}
	// Parent and children are separate executions, so their ratio is a
	// measurement, not an invariant; what must hold is that both were
	// measured at all.
	for _, k := range opKinds {
		if res.coverage[k] <= 0 {
			t.Errorf("replay of %s: children cover %v of the parent span", k, res.coverage[k])
		}
	}
	raw, err := os.ReadFile(res.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	clientSpans := 0
	for _, s := range tf.Spans {
		if s.EndUS < s.StartUS {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Layer == "client" {
			clientSpans++
			if s.RequestID == "" || s.Parent < 0 {
				t.Fatalf("client span %d has no request id or parent", s.ID)
			}
		}
	}
	if clientSpans != res.attempted-1 { // the crash-reopen check is not a request
		t.Errorf("%d client spans for %d traced ops", clientSpans, res.attempted-1)
	}
}
