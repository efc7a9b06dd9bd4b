package paradyn

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func TestHistogramRoundTrip(t *testing.T) {
	h := &Histogram{
		Metric:   "cpu_inclusive",
		Focus:    []string{"/Code/irs.c/main", "/Machine/mcr123/irs{1234}"},
		Phase:    "global",
		NumBins:  5,
		BinWidth: 0.2,
		Values:   []float64{math.NaN(), 1.5, 2.25, math.NaN(), 0},
	}
	var buf bytes.Buffer
	if err := WriteHistogram(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ParseHistogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metric != h.Metric || len(got.Focus) != 2 || got.BinWidth != 0.2 {
		t.Errorf("header = %+v", got)
	}
	if len(got.Values) != 5 || !math.IsNaN(got.Values[0]) || got.Values[2] != 2.25 {
		t.Errorf("values = %v", got.Values)
	}
}

func TestParseHistogramErrors(t *testing.T) {
	bad := []string{
		"", // no metric
		"metric: m\nnumBins: 3\nbinWidth: 1\n1\n", // bin count mismatch
		"metric: m\nbinWidth: 0\n",                // bad width
		"metric: m\nbinWidth: 1\nnotanumber\n",    // bad value
		"metric: m\nnumBins: x\n",                 // bad numBins
	}
	for _, doc := range bad {
		if _, err := ParseHistogram(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseHistogram(%q) should fail", doc)
		}
	}
}

func TestIndexAndResourcesAndSHGRoundTrip(t *testing.T) {
	entries := []IndexEntry{
		{File: "h0.hist", Metric: "cpu", Focus: []string{"/Code/a.c/f"}},
		{File: "h1.hist", Metric: "io_wait", Focus: []string{"/Code/a.c/g", "/Machine/n/p{1}"}},
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ParseIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Metric != "io_wait" || len(got[1].Focus) != 2 {
		t.Errorf("index = %+v", got)
	}

	res, err := ParseResources(strings.NewReader("# header\n/Code/a.c\n/Machine/n\n"))
	if err != nil || len(res) != 2 {
		t.Errorf("resources = %v, %v", res, err)
	}
	if _, err := ParseResources(strings.NewReader("not-absolute\n")); err == nil {
		t.Error("relative resource accepted")
	}

	nodes := []SHGNode{{ID: 1, Hypothesis: "CPUBound", Focus: []string{"/Code/a.c"}, Truth: "true"}}
	buf.Reset()
	if err := WriteSearchHistory(&buf, nodes); err != nil {
		t.Fatal(err)
	}
	shg, err := ParseSearchHistory(&buf)
	if err != nil || len(shg) != 1 || shg[0].Truth != "true" {
		t.Errorf("shg = %+v, %v", shg, err)
	}
}

func TestMapResourceFigure11(t *testing.T) {
	cases := []struct {
		pd       string
		wantName core.ResourceName
		wantType core.TypePath
	}{
		{"/Code", "/e1-code", "build"},
		{"/Code/irs.c", "/e1-code/irs.c", "build/module"},
		{"/Code/irs.c/main", "/e1-code/irs.c/main", "build/module/function"},
		{"/Code/irs.c/main/loop1", "/e1-code/irs.c/main/loop1", "build/module/function/codeBlock"},
		{"/Code/DEFAULT_MODULE/__memcpy", "/e1-code/DEFAULT_MODULE/__memcpy", "build/module/function"},
		{"/Machine/mcr9/irs{42}", "/e1/irs_42", "execution/process"},
		{"/Machine/mcr9/irs{42}/thr_1", "/e1/irs_42/thr_1", "execution/process/thread"},
		{"/SyncObject/Message", "/e1-sync/Message", "syncObject/type"},
		{"/SyncObject/Message/MPI_COMM_WORLD", "/e1-sync/Message/MPI_COMM_WORLD", "syncObject/type/object"},
	}
	for _, c := range cases {
		m, err := MapResource(c.pd, "e1")
		if err != nil {
			t.Fatalf("MapResource(%q): %v", c.pd, err)
		}
		if m.Name != c.wantName || m.Type != c.wantType {
			t.Errorf("MapResource(%q) = %q (%q), want %q (%q)",
				c.pd, m.Name, m.Type, c.wantName, c.wantType)
		}
	}
	// The machine node becomes an attribute of the process (Figure 11).
	m, _ := MapResource("/Machine/mcr9/irs{42}", "e1")
	if m.Attributes["node"] != "mcr9" {
		t.Errorf("node attribute = %v", m.Attributes)
	}
}

func TestMapResourceErrors(t *testing.T) {
	for _, pd := range []string{"relative", "/Unknown/x", "/Code/a/b/c/d", "/Machine/a/b/c/d/e"} {
		if _, err := MapResource(pd, "e1"); err == nil {
			t.Errorf("MapResource(%q) should fail", pd)
		}
	}
}

func TestSynthesizeShape(t *testing.T) {
	run := Run{
		Execution: "e1", NModules: 4, NFuncs: 10, NProcs: 4,
		NBins: 100, BinWidth: 0.2, NFoci: 3, NanFrac: 0.2, Seed: 1,
	}
	b := Synthesize(run)
	// 4 modules + 40 funcs + DEFAULT_MODULE pair + 2 sync + 8 machine.
	if len(b.Resources) != 4+40+2+2+8 {
		t.Errorf("resources = %d", len(b.Resources))
	}
	if len(b.Histograms) != len(DefaultMetrics)*3 {
		t.Errorf("histograms = %d", len(b.Histograms))
	}
	nan := 0
	for _, h := range b.Histograms {
		if len(h.Values) != 100 {
			t.Fatalf("bins = %d", len(h.Values))
		}
		for _, v := range h.Values {
			if math.IsNaN(v) {
				nan++
			}
		}
	}
	if nan == 0 {
		t.Error("expected some nan bins")
	}
	if len(b.SHG) != 3 {
		t.Errorf("SHG nodes = %d", len(b.SHG))
	}
}

func TestGenerateAndLoadBundle(t *testing.T) {
	dir := t.TempDir()
	run := Run{
		Execution: "irs-pd-001", NModules: 2, NFuncs: 5, NProcs: 2,
		NBins: 50, BinWidth: 0.2, NFoci: 2, NanFrac: 0.1, Seed: 2,
	}
	if err := GenerateBundle(dir, run); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Histograms) != len(DefaultMetrics)*2 {
		t.Errorf("histograms = %d", len(b.Histograms))
	}
	if len(b.Resources) == 0 || len(b.SHG) == 0 {
		t.Error("bundle incomplete")
	}
}

func TestBundleToPTdfLoadsAndSkipsNan(t *testing.T) {
	run := Run{
		Execution: "irs-pd-001", NModules: 2, NFuncs: 5, NProcs: 2,
		NBins: 40, BinWidth: 0.2, NFoci: 2, NanFrac: 0.25, Seed: 3,
	}
	b := Synthesize(run)
	recs, err := b.ToPTdf("irs", "irs-pd-001")
	if err != nil {
		t.Fatal(err)
	}
	nonNan := 0
	for _, h := range b.Histograms {
		for _, v := range h.Values {
			if !math.IsNaN(v) {
				nonNan++
			}
		}
	}
	results := 0
	for _, rec := range recs {
		if _, ok := rec.(ptdf.PerfResultRec); ok {
			results++
		}
	}
	if results != nonNan {
		t.Errorf("results = %d, non-nan bins = %d (nan bins must not be recorded)", results, nonNan)
	}

	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Type extensions landed.
	if !s.Types().Has("syncObject/type/object") || !s.Types().Has("time/interval/bin") {
		t.Error("type extensions missing")
	}
	// Bin resources carry start/end attributes.
	bins, err := s.Descendants("/irs-pd-001-time")
	if err != nil || len(bins) == 0 {
		t.Fatalf("time bins = %v, %v", bins, err)
	}
	bin, err := s.ResourceByName(bins[0])
	if err != nil {
		t.Fatal(err)
	}
	if bin.Attributes["start time"] == "" || bin.Attributes["end time"] == "" {
		t.Errorf("bin attrs = %v", bin.Attributes)
	}
	// Process resources carry the machine node as an attribute.
	procs, err := s.ResourcesOfType("execution/process")
	if err != nil || len(procs) == 0 {
		t.Fatalf("processes = %v, %v", procs, err)
	}
	proc, _ := s.ResourceByName(procs[0])
	if proc.Attributes["node"] == "" {
		t.Errorf("process attrs = %v", proc.Attributes)
	}
	// The Performance Consultant's findings are recorded.
	exec, _ := s.ResourceByName("/irs-pd-001")
	foundPC := false
	for k := range exec.Attributes {
		if strings.HasPrefix(k, "PC hypothesis") {
			foundPC = true
		}
	}
	if !foundPC {
		t.Error("search history graph not recorded")
	}
}

func TestHierarchyFigure10(t *testing.T) {
	h := Hierarchy()
	if len(h) != 3 {
		t.Errorf("hierarchy roots = %d", len(h))
	}
	for _, root := range []string{"Code", "Machine", "SyncObject"} {
		if len(h[root]) == 0 {
			t.Errorf("root %q has no levels", root)
		}
	}
}
