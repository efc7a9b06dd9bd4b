package gen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func TestCatalogHasFourMachines(t *testing.T) {
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog = %d machines", len(cat))
	}
	names := map[string]Machine{}
	for _, m := range cat {
		names[m.Name] = m
	}
	// §4.2: UV has 128 8-way Power4+ nodes at 1.5 GHz.
	uv := names["UV"]
	if uv.ClockMHz != 1500 || uv.ProcessorType != "Power4+" ||
		uv.Partitions[0].Nodes != 128 || uv.Partitions[0].ProcsPerNode != 8 {
		t.Errorf("UV = %+v", uv)
	}
	// §4.2: BG/L's early partition had 16k PowerPC 440 nodes.
	bgl := names["BGL"]
	if bgl.Partitions[0].Nodes != 16384 || bgl.ProcessorType != "PowerPC 440" {
		t.Errorf("BGL = %+v", bgl)
	}
	if _, err := MachineByName("Frost"); err != nil {
		t.Error(err)
	}
	if _, err := MachineByName("nonesuch"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestMachineToPTdfLoadsWithCap(t *testing.T) {
	m, _ := MachineByName("Frost")
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range m.ToPTdf(4) {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 4 nodes per partition x 16 procs.
	procs, err := s.ResourcesOfType("grid/machine/partition/node/processor")
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2*4*16 {
		t.Errorf("processors = %d", len(procs))
	}
	p, _ := s.ResourceByName(procs[0])
	if p.Attributes["clock MHz"] != "375" || p.Attributes["processor type"] != "Power3" {
		t.Errorf("processor attrs = %v", p.Attributes)
	}
	// True node count recorded as an attribute even when capped.
	part, _ := s.ResourceByName("/SingleMachineFrost/Frost/batch")
	if part.Attributes["node count"] != "64" {
		t.Errorf("partition attrs = %v", part.Attributes)
	}
}

func TestTopologyFactorization(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 60, 17} {
		px, py, pz := topology(n)
		if px*py*pz != n {
			t.Errorf("topology(%d) = %d*%d*%d", n, px, py, pz)
		}
	}
}

func TestWriteExecutionFileCountsMatchTable1(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		kind  string
		files int
	}{
		{KindIRS, 6},    // Table 1: 6 files per IRS execution
		{KindSMGUV, 2},  // Table 1: 2 files per SMG-UV execution
		{KindSMGBGL, 1}, // Table 1: 1 file per SMG-BG/L execution
	}
	for _, c := range cases {
		sub := filepath.Join(dir, c.kind)
		files, err := WriteExecution(sub, ExecSpec{
			Kind: c.kind, Execution: "e-" + c.kind, App: "app",
			Machine: "MCR", NProcs: 8, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if len(files) != c.files {
			t.Errorf("%s: %d files, want %d", c.kind, len(files), c.files)
		}
		for _, f := range files {
			st, err := os.Stat(filepath.Join(sub, f))
			if err != nil || st.Size() == 0 {
				t.Errorf("%s: file %s missing or empty", c.kind, f)
			}
		}
	}
}

func TestWriteExecutionUnknownKind(t *testing.T) {
	if _, err := WriteExecution(t.TempDir(), ExecSpec{Kind: "bogus"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConvertExecutionAllKinds(t *testing.T) {
	for _, kind := range []string{KindIRS, KindSMGUV, KindSMGBGL} {
		dir := t.TempDir()
		spec := ExecSpec{
			Kind: kind, Execution: "e1", App: "app",
			Machine: "UV", NProcs: 4, Seed: 2,
		}
		if _, err := WriteExecution(dir, spec); err != nil {
			t.Fatalf("%s write: %v", kind, err)
		}
		recs, err := ConvertExecution(dir, spec)
		if err != nil {
			t.Fatalf("%s convert: %v", kind, err)
		}
		results := 0
		for _, rec := range recs {
			if _, ok := rec.(ptdf.PerfResultRec); ok {
				results++
			}
		}
		switch kind {
		case KindSMGBGL:
			if results != 8 {
				t.Errorf("%s: results = %d, want 8", kind, results)
			}
		case KindSMGUV:
			// 8 benchmark + 4*8 PMAPI + mpiP (5 tasks*2 + 36*5*4).
			if results < 500 {
				t.Errorf("%s: results = %d, want several hundred", kind, results)
			}
		case KindIRS:
			// 4 group files x ~19 functions x 5 metrics x ~94% x 4 stats
			// ~= 1,500, the paper's 1,514 per execution.
			if results < 1200 || results > 1700 {
				t.Errorf("%s: results = %d, want ~1514", kind, results)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	entries := []IndexEntry{
		{Execution: "e1", App: "irs", Concurrency: "MPI", NProcs: 8, NThreads: 1,
			BuildTime: "2005-04-01T00:00:00Z", RunTime: "2005-04-02T00:00:00Z",
			Kind: KindIRS, Machine: "MCR", Dir: "/tmp/e1", Seed: 7},
	}
	var buf bytes.Buffer
	if err := WriteIndex(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ParseIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != entries[0] {
		t.Errorf("round trip = %+v", got)
	}
}

func TestParseIndexErrors(t *testing.T) {
	bad := []string{
		"e1 irs MPI 8\n",
		"e1 irs MPI x 1 b r k m d 1\n",
		"e1 irs MPI 8 x b r k m d 1\n",
		"e1 irs MPI 8 1 b r k m d x\n",
	}
	for _, doc := range bad {
		if _, err := ParseIndex(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("ParseIndex(%q) should fail", doc)
		}
	}
}

func TestPTdfGenEndToEnd(t *testing.T) {
	dataDir := t.TempDir()
	outDir := t.TempDir()
	spec := ExecSpec{Kind: KindSMGBGL, Execution: "bgl-1", App: "smg2000",
		Machine: "BGL", NProcs: 32, Seed: 3}
	if _, err := WriteExecution(dataDir, spec); err != nil {
		t.Fatal(err)
	}
	entries := []IndexEntry{{
		Execution: "bgl-1", App: "smg2000", Concurrency: "MPI",
		NProcs: 32, NThreads: 1, BuildTime: "t0", RunTime: "t1",
		Kind: KindSMGBGL, Machine: "BGL", Dir: dataDir, Seed: 3,
	}}
	paths, err := PTdfGen(entries, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	// The generated PTdf loads into a store that already has the machine.
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := MachineByName("BGL")
	batch := s.NewBatch()
	for _, rec := range m.ToPTdf(2) {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err := s.LoadPTdfFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 8 {
		t.Errorf("loaded results = %d", stats.Results)
	}
	// Index attributes landed on the execution resource.
	exec, err := s.ResourceByName("/bgl-1")
	if err != nil {
		t.Fatal(err)
	}
	if exec.Attributes["concurrency model"] != "MPI" || exec.Attributes["build timestamp"] != "t0" {
		t.Errorf("exec attrs = %v", exec.Attributes)
	}
}

func TestSplitCombinedOutput(t *testing.T) {
	data := []byte("smg stuff\nmore\nPMAPI hardware counter report\nGroup: g\n")
	s, p := splitCombinedOutput(data)
	if !bytes.HasPrefix(p, []byte("PMAPI")) || bytes.Contains(s, []byte("PMAPI")) {
		t.Errorf("split = %q / %q", s, p)
	}
	s2, p2 := splitCombinedOutput([]byte("no marker here"))
	if p2 != nil || string(s2) != "no marker here" {
		t.Errorf("split without marker = %q / %q", s2, p2)
	}
}
