package collect

import (
	"context"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

const makeLog = `make -C src all
gcc -c -O2 -DNDEBUG irs.c -o irs.o
gcc -c -O2 -DNDEBUG rad.c -o rad.o
mpicc -cc=icc -O2 -c comm.c -o comm.o
mpicc -o irs irs.o rad.o comm.o -lm -lmpi -lpthread
echo done
`

func TestParseMakeLog(t *testing.T) {
	invs, err := ParseMakeLog(strings.NewReader(makeLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 4 {
		t.Fatalf("invocations = %d: %+v", len(invs), invs)
	}
	c0 := invs[0]
	if c0.Compiler != "gcc" || c0.IsLink || len(c0.Sources) != 1 || c0.Sources[0] != "irs.c" {
		t.Errorf("inv 0 = %+v", c0)
	}
	if !contains(c0.Flags, "-O2") || !contains(c0.Flags, "-DNDEBUG") {
		t.Errorf("flags = %v", c0.Flags)
	}
	mpi := invs[2]
	if !mpi.IsMPIWrapper || mpi.WrappedCompiler != "icc" {
		t.Errorf("wrapper = %+v", mpi)
	}
	link := invs[3]
	if !link.IsLink || len(link.Libraries) != 3 || link.Outputs[0] != "irs" {
		t.Errorf("link = %+v", link)
	}
}

func TestParseMakeLogDefaultWrappedCompiler(t *testing.T) {
	invs, err := ParseMakeLog(strings.NewReader("mpif90 -c solve.f90 -o solve.o\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 || invs[0].WrappedCompiler != "f90" {
		t.Errorf("invs = %+v", invs)
	}
}

func TestParseMakeLogIgnoresNoise(t *testing.T) {
	log := "rm -f *.o\nar rcs libx.a x.o\ngcc --version\ninstall -m 755 irs /usr/bin\n"
	invs, err := ParseMakeLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 0 {
		t.Errorf("noise produced invocations: %+v", invs)
	}
}

func TestCaptureBuildDerivesLibraries(t *testing.T) {
	b, err := CaptureBuild("irs-build-1", "irs", strings.NewReader(makeLog))
	if err != nil {
		t.Fatal(err)
	}
	if b.Machine == "" || b.OS == "" {
		t.Errorf("host info missing: %+v", b)
	}
	if len(b.Libraries) != 3 {
		t.Fatalf("libraries = %+v", b.Libraries)
	}
	kinds := map[string]string{}
	for _, l := range b.Libraries {
		kinds[l.Name] = l.Kind
	}
	if kinds["mpi"] != "MPI" || kinds["pthread"] != "thread" || kinds["m"] != "static" {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestCaptureRunConcurrencyModel(t *testing.T) {
	cases := []struct {
		np, nt int
		want   string
	}{
		{1, 1, "sequential"},
		{8, 1, "MPI"},
		{1, 4, "OpenMP"},
		{8, 4, "MPI+OpenMP"},
	}
	for _, c := range cases {
		r := CaptureRun("e", "app", c.np, c.nt, "")
		if r.Concurrency != c.want {
			t.Errorf("np=%d nt=%d: %q, want %q", c.np, c.nt, r.Concurrency, c.want)
		}
	}
}

func TestRunInfoValidate(t *testing.T) {
	bad := []*RunInfo{
		{Application: "a", NProcs: 1},
		{Execution: "e", NProcs: 1},
		{Execution: "e", Application: "a", NProcs: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad run info %d accepted", i)
		}
	}
}

// loadRecords pushes PTdf records into a fresh store, failing the test on
// any error — verifying that capture output is always loadable.
func loadRecords(t *testing.T, recs []ptdf.Record) *datastore.Store {
	t.Helper()
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
	return s
}

func TestBuildInfoToPTdfLoads(t *testing.T) {
	b, err := CaptureBuild("irs-build-1", "irs", strings.NewReader(makeLog))
	if err != nil {
		t.Fatal(err)
	}
	s := loadRecords(t, b.ToPTdf())
	res, err := s.ResourceByName("/irs-build-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["build machine"] == "" {
		t.Error("build machine attribute missing")
	}
	// MPI wrapper attributes present on the compiler resource.
	comp, err := s.ResourceByName("/mpicc")
	if err != nil {
		t.Fatal(err)
	}
	if comp.Attributes["wrapped compiler"] != "icc" {
		t.Errorf("compiler attrs = %v", comp.Attributes)
	}
	// Compiler is a resource-valued attribute of the build.
	if len(res.Constraints) < 2 { // OS + at least one compiler
		t.Errorf("build constraints = %v", res.Constraints)
	}
}

func TestRunInfoToPTdfLoads(t *testing.T) {
	r := CaptureRun("irs-001", "irs", 4, 2, "")
	r.BuildName = "irs-build-1"
	r.Libraries = []Library{{Name: "libmpi.so", Kind: "MPI", Version: "1.2", Size: 123456, Timestamp: "2005-04-01T00:00:00Z"}}
	recs, err := r.ToPTdf()
	if err != nil {
		t.Fatal(err)
	}
	s := loadRecords(t, recs)
	exec, err := s.ResourceByName("/irs-001")
	if err != nil {
		t.Fatal(err)
	}
	if exec.Attributes["number of processes"] != "4" ||
		exec.Attributes["concurrency model"] != "MPI+OpenMP" {
		t.Errorf("exec attrs = %v", exec.Attributes)
	}
	// 4 processes x 2 threads under the execution resource.
	desc, err := s.Descendants("/irs-001")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 12 { // 4 procs + 8 threads
		t.Errorf("descendants = %d: %v", len(desc), desc)
	}
	lib, err := s.ResourceByName("/irs-001-env/libmpi.so")
	if err != nil {
		t.Fatal(err)
	}
	if lib.Attributes["type"] != "MPI" || lib.Attributes["size"] != "123456" {
		t.Errorf("lib attrs = %v", lib.Attributes)
	}
}

func TestRunInfoToPTdfRejectsInvalid(t *testing.T) {
	r := &RunInfo{}
	if _, err := r.ToPTdf(); err == nil {
		t.Error("invalid run info accepted")
	}
}

func TestCaptureEnvAllowlistOnly(t *testing.T) {
	t.Setenv("PATH", "/usr/bin")
	t.Setenv("SECRET_TOKEN", "do-not-record")
	env := CaptureEnv()
	if _, ok := env["SECRET_TOKEN"]; ok {
		t.Error("non-allowlisted variable captured")
	}
	if env["PATH"] != "/usr/bin" {
		t.Errorf("PATH = %q", env["PATH"])
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
