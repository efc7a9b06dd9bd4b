package perftrack

// End-to-end test of the command-line tools: builds the binaries once and
// drives the full §3.3 workflow — init, generate, convert, load, query,
// interactive session, figure regeneration — exactly as a user would.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every cmd/ binary into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

type cli struct {
	t   *testing.T
	bin string
}

func (c cli) run(tool string, args ...string) string {
	c.t.Helper()
	cmd := exec.Command(filepath.Join(c.bin, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		c.t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// runFail runs a tool expecting a non-zero exit, returning the combined
// output.
func (c cli) runFail(tool string, args ...string) string {
	c.t.Helper()
	cmd := exec.Command(filepath.Join(c.bin, tool), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		c.t.Fatalf("%s %s: expected failure, got success\n%s", tool, strings.Join(args, " "), out)
	}
	return string(out)
}

func (c cli) runStdin(stdin, tool string, args ...string) string {
	c.t.Helper()
	cmd := exec.Command(filepath.Join(c.bin, tool), args...)
	cmd.Stdin = strings.NewReader(stdin)
	out, err := cmd.CombinedOutput()
	if err != nil {
		c.t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	c := cli{t: t, bin: buildTools(t)}
	work := t.TempDir()
	db := filepath.Join(work, "store")
	raw := filepath.Join(work, "raw")
	ptdfDir := filepath.Join(work, "ptdf")

	// 1. Initialize with machines.
	out := c.run("ptinit", "-db", db, "-machines", "-maxnodes", "2")
	if !strings.Contains(out, "initialized PerfTrack store") ||
		!strings.Contains(out, "loaded machine BGL") {
		t.Fatalf("ptinit:\n%s", out)
	}

	// 2. Generate a dataset with an index file.
	out = c.run("ptgen", "-kind", "smg-bgl", "-out", raw, "-execs", "3", "-np", "16", "-seed", "5")
	if !strings.Contains(out, "wrote index") {
		t.Fatalf("ptgen:\n%s", out)
	}

	// 3. Convert via the index workflow.
	out = c.run("ptdfgen", "-index", filepath.Join(raw, "index.txt"), "-out", ptdfDir)
	if !strings.Contains(out, "wrote 3 PTdf files") {
		t.Fatalf("ptdfgen:\n%s", out)
	}

	// 4. Load.
	files, err := filepath.Glob(filepath.Join(ptdfDir, "*.ptdf"))
	if err != nil || len(files) != 3 {
		t.Fatalf("ptdf files: %v %v", files, err)
	}
	out = c.run("ptload", append([]string{"-db", db}, files...)...)
	if !strings.Contains(out, "store now holds 3 executions, 24 results") {
		t.Fatalf("ptload:\n%s", out)
	}

	// 5. Build/run capture wrappers.
	makeLog := filepath.Join(work, "make.out")
	os.WriteFile(makeLog, []byte("mpicc -c -O2 x.c -o x.o\nmpicc -o x x.o -lmpi\n"), 0o644)
	out = c.run("ptbuild", "-name", "smg-build-1", "-app", "smg2000", "-log", makeLog, "-db", db)
	if !strings.Contains(out, "2 compiler invocations") {
		t.Fatalf("ptbuild:\n%s", out)
	}
	out = c.run("ptrun", "-exec", "smg-live-1", "-app", "smg2000", "-np", "4",
		"-build", "smg-build-1", "-db", db)
	if !strings.Contains(out, "MPI, 4 processes") {
		t.Fatalf("ptrun:\n%s", out)
	}

	// 6. Queries: counts, reports, details, SQL, CSV.
	out = c.run("ptquery", "-db", db, "-family", "type=application", "-count")
	if !strings.Contains(out, "pr-filter matches 24 performance results") {
		t.Fatalf("ptquery count:\n%s", out)
	}
	out = c.run("ptquery", "-db", db, "-report", "executions")
	if !strings.Contains(out, "smg-bgl-001") || !strings.Contains(out, "smg-live-1") {
		t.Fatalf("ptquery executions:\n%s", out)
	}
	out = c.run("ptquery", "-db", db, "-detail", "smg-bgl-000")
	if !strings.Contains(out, "results:     8") {
		t.Fatalf("ptquery detail:\n%s", out)
	}
	out = c.run("ptsql", "-db", db,
		"SELECT COUNT(*) FROM performance_result")
	if !strings.Contains(out, "24") {
		t.Fatalf("ptsql:\n%s", out)
	}
	csvPath := filepath.Join(work, "out.csv")
	c.run("ptquery", "-db", db, "-family", "type=application",
		"-metric", "Iterations", "-csv", csvPath)
	data, err := os.ReadFile(csvPath)
	if err != nil || !strings.HasPrefix(string(data), "execution,metric,value") {
		t.Fatalf("csv export: %v\n%s", err, data)
	}

	// 7. Interactive session over stdin.
	out = c.runStdin("family type=application\nfetch\nmetric Iterations\ntable\nquit\n",
		"ptgui", "-db", db)
	if !strings.Contains(out, "retrieved 24 results") || !strings.Contains(out, "Iterations") {
		t.Fatalf("ptgui:\n%s", out)
	}

	// 8. Delete an execution and verify it is gone.
	c.run("ptquery", "-db", db, "-delete-exec", "smg-bgl-001")
	out = c.run("ptquery", "-db", db, "-report", "executions")
	if strings.Contains(out, "smg-bgl-001\n") {
		t.Fatalf("deleted execution still listed:\n%s", out)
	}

	// 9. Compare two executions (§6 operators).
	out = c.run("ptcompare", "-db", db, "-a", "smg-bgl-000", "-b", "smg-bgl-002")
	if !strings.Contains(out, "aligned pairs: 8") ||
		!strings.Contains(out, "geometric-mean ratio") {
		t.Fatalf("ptcompare:\n%s", out)
	}

	// 10. Figure regeneration (cheap ones).
	out = c.run("ptbench", "-schema", "-basetypes", "-fig10", "-fig11")
	for _, want := range []string{
		"CREATE TABLE resource_item",
		"grid / machine / partition / node / processor",
		"Paradyn resource type hierarchy",
		"build/module/function",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ptbench missing %q:\n%s", want, out)
		}
	}
	svg := filepath.Join(work, "fig5.svg")
	out = c.run("ptbench", "-fig5", "-svg", svg)
	if !strings.Contains(out, "Min/max running time") {
		t.Fatalf("ptbench fig5:\n%s", out)
	}
	if st, err := os.Stat(svg); err != nil || st.Size() == 0 {
		t.Fatalf("fig5 svg missing: %v", err)
	}
}

// TestCLIDiagnose drives ptdiagnose end to end against a hand-planted
// corpus: load executions whose only systematic difference is a compiler
// attribute, then recover it as the top-ranked explanation.
func TestCLIDiagnose(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	c := cli{t: t, bin: buildTools(t)}
	work := t.TempDir()
	db := filepath.Join(work, "store")
	c.run("ptinit", "-db", db)

	var doc strings.Builder
	doc.WriteString("Application diagapp\nResource /diagapp application\n")
	diagArgs := []string{"-db", db}
	for i := 0; i < 8; i++ {
		name := "diag-" + string(rune('0'+i))
		compiler, value := "-O2", 100.0
		side := "-a"
		if i%2 == 1 {
			compiler, value, side = "-O0", 200.0, "-b"
		}
		fmt.Fprintf(&doc, "Execution %s diagapp\n", name)
		fmt.Fprintf(&doc, "Resource /%s execution %s\n", name, name)
		fmt.Fprintf(&doc, "ResourceAttribute /%s compiler %s string\n", name, compiler)
		fmt.Fprintf(&doc, "PerfResult %s /diagapp,/%s(primary) t \"wall clock time\" %g seconds\n",
			name, name, value)
		diagArgs = append(diagArgs, side, name)
	}
	docPath := filepath.Join(work, "fleet.ptdf")
	if err := os.WriteFile(docPath, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	c.run("ptload", "-db", db, docPath)

	out := c.run("ptdiagnose", append(diagArgs, "-explain")...)
	if !strings.Contains(out, "compiler = -O0") || !strings.Contains(out, "ratio B/A 2.000") {
		t.Fatalf("ptdiagnose:\n%s", out)
	}
	if !strings.Contains(out, "search trace:") {
		t.Fatalf("ptdiagnose -explain printed no trace:\n%s", out)
	}

	// 1v1 mode aligns contexts.
	out = c.run("ptdiagnose", "-db", db, "-a", "diag-0", "-b", "diag-1")
	if !strings.Contains(out, "aligned contexts") {
		t.Fatalf("ptdiagnose 1v1:\n%s", out)
	}

	// Attribute listing.
	out = c.run("ptdiagnose", "-db", db, "-attrs")
	if !strings.Contains(out, "compiler") {
		t.Fatalf("ptdiagnose -attrs:\n%s", out)
	}

	// A missing execution is a one-line hint and a non-zero exit.
	out = c.runFail("ptdiagnose", "-db", db, "-a", "diag-0", "-b", "nope")
	if !strings.Contains(out, `execution "nope" not found (try 'ptquery -report executions'`) {
		t.Fatalf("ptdiagnose not-found UX:\n%s", out)
	}
	out = c.runFail("ptcompare", "-db", db, "-a", "diag-0", "-b", "nope")
	if !strings.Contains(out, `execution "nope" not found (try 'ptquery -report executions'`) {
		t.Fatalf("ptcompare not-found UX:\n%s", out)
	}
}
