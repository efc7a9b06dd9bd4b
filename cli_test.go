package perftrack

// End-to-end test of the command-line tools: builds the binaries once and
// drives the full §3.3 workflow — init, generate, convert, load, query,
// interactive session, figure regeneration — exactly as a user would.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
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

// runSplit runs a tool expecting success, returning stdout and stderr
// apart.
func (c cli) runSplit(tool string, args ...string) (stdout, stderr string) {
	c.t.Helper()
	cmd := exec.Command(filepath.Join(c.bin, tool), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		c.t.Fatalf("%s %s: %v\n%s%s", tool, strings.Join(args, " "), err, out.String(), errOut.String())
	}
	return out.String(), errOut.String()
}

// serve starts ptserved over dir on a free local port and returns its base
// URL and a function that stops it with SIGTERM (drain and checkpoint).
func (c cli) serve(dir string) (string, func()) {
	c.t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(filepath.Join(c.bin, "ptserved"), "-db", dir, "-addr", addr, "-log-level", "error")
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		c.t.Fatal(err)
	}
	stopped := false
	stop := func() {
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			c.t.Fatalf("ptserved: %v\n%s", err, log.String())
		}
	}
	c.t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	base := "http://" + addr
	// A readiness wait, not a bound on speed: ptserved has until the
	// test's deadline nears to answer /healthz.
	deadline := time.Now().Add(time.Minute)
	if d, ok := c.t.Deadline(); ok {
		deadline = d.Add(-10 * time.Second)
	}
	for ; ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			return base, stop
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("ptserved did not become ready:\n%s", log.String())
		}
	}
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

// TestCLICaptureIsAtomic: ptrun -db and ptbuild -db load a capture as one
// document, so a record the store refuses late in the capture leaves none
// of the capture behind.
func TestCLICaptureIsAtomic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	c := cli{t: t, bin: buildTools(t)}
	work := t.TempDir()
	db := filepath.Join(work, "store")
	c.run("ptinit", "-db", db)
	// Resources named like a later record of each capture — the run's
	// input deck, the build's compiler — but of another type.
	planted := filepath.Join(work, "planted.ptdf")
	if err := os.WriteFile(planted, []byte("Resource /atomdeck application\nResource /mpicc application\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.run("ptload", "-db", db, planted)

	out := c.runFail("ptrun", "-exec", "atom-run", "-app", "atomrunapp", "-np", "2", "-input", "atomdeck", "-db", db)
	if !strings.Contains(out, `"/atomdeck" already registered with a different type`) {
		t.Fatalf("ptrun was not refused at the input deck:\n%s", out)
	}
	makeLog := filepath.Join(work, "make.out")
	if err := os.WriteFile(makeLog, []byte("mpicc -c -O2 x.c -o x.o\nmpicc -o x x.o -lmpi\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = c.runFail("ptbuild", "-name", "atom-build", "-app", "atombuildapp", "-log", makeLog, "-db", db)
	if !strings.Contains(out, `"/mpicc" already registered with a different type`) {
		t.Fatalf("ptbuild was not refused at the compiler:\n%s", out)
	}

	// The first records of each capture — its application, the run's
	// execution, the build's resource — were accepted before the refused
	// one; none of them may be in the store.
	apps := c.run("ptquery", "-db", db, "-report", "applications")
	execs := c.run("ptquery", "-db", db, "-report", "executions")
	rows, _ := c.runSplit("ptsql", "-db", db, "SELECT count(*) FROM resource_item WHERE name = '/atom-build'")
	if strings.Contains(apps, "atomrunapp") || strings.Contains(apps, "atombuildapp") ||
		strings.Contains(execs, "atom-run") || !strings.HasSuffix(strings.Join(strings.Fields(rows), " "), "- 0") {
		t.Fatalf("a refused capture left records behind:\napplications:\n%s\nexecutions:\n%s\n/atom-build:\n%s", apps, execs, rows)
	}
}

// TestCLILocalMatchesRemote runs every verb the tools share between -db
// and -remote against one store, first served by ptserved and then, after
// it stops, opened directly: stdout, any CSV written and stderr must be
// the same, but for the query-engine counters of -explain, which reflect
// the server's earlier requests. A read-only -db run leaves the store's
// files as they were, and ptload prints one summary on two fresh stores.
func TestCLILocalMatchesRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	c := cli{t: t, bin: buildTools(t)}
	work := t.TempDir()
	db := filepath.Join(work, "store")
	raw := filepath.Join(work, "raw")
	ptdfDir := filepath.Join(work, "ptdf")
	c.run("ptinit", "-db", db, "-machines", "-maxnodes", "2")
	c.run("ptgen", "-kind", "smg-bgl", "-out", raw, "-execs", "3", "-np", "16", "-seed", "5")
	c.run("ptdfgen", "-index", filepath.Join(raw, "index.txt"), "-out", ptdfDir)
	files, err := filepath.Glob(filepath.Join(ptdfDir, "*.ptdf"))
	if err != nil || len(files) != 3 {
		t.Fatalf("ptdf files: %v %v", files, err)
	}
	c.run("ptload", append([]string{"-db", db}, files...)...)

	csvPath := filepath.Join(work, "out.csv")
	app := "type=application"
	verbs := [][]string{
		// First, so the served cache holds no entry of these families yet.
		{"ptquery", "-family", "name=/BGLGrid/BGL;rel=D", "-family", "type=execution", "-count", "-explain"},
		{"ptquery", "-family", app, "-count"},
		{"ptquery", "-family", app, "-sort", "value", "-desc", "-limit", "5"},
		{"ptquery", "-report", "executions"},
		{"ptquery", "-report", "metrics"},
		{"ptquery", "-report", "applications"},
		{"ptquery", "-report", "tools"},
		{"ptquery", "-report", "stats"},
		{"ptquery", "-family", app, "-stream", "-limit", "5"},
		{"ptquery", "-family", app, "-sort", "value", "-csv", csvPath},
		{"ptquery", "-family", app, "-chart", "metric", "-reduce", "max"},
		{"ptsql", "SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric"},
		{"ptcompare", "-a", "smg-bgl-000", "-b", "smg-bgl-001"},
		{"ptcompare", "-a", "smg-bgl-000", "-b", "smg-bgl-001", "-diagnose"},
		{"ptdiagnose", "-a", "smg-bgl-000", "-b", "smg-bgl-001"},
		{"ptdiagnose", "-attrs"},
	}
	engineLine := regexp.MustCompile(`(?m)^query engine:.*$`)
	digits := regexp.MustCompile(`[0-9]+`)
	runAll := func(door ...string) []string {
		var outs []string
		for _, v := range verbs {
			os.Remove(csvPath)
			stdout, stderr := c.runSplit(v[0], append(append([]string{}, door...), v[1:]...)...)
			stderr = engineLine.ReplaceAllStringFunc(stderr, func(l string) string { return digits.ReplaceAllString(l, "N") })
			csv, _ := os.ReadFile(csvPath)
			outs = append(outs, fmt.Sprintf("stdout:\n%s\nstderr:\n%s\ncsv:\n%s", stdout, stderr, csv))
		}
		return outs
	}
	base, stop := c.serve(db)
	remote := runAll("-remote", base)
	stop()
	before := hashDir(t, db)
	local := runAll("-db", db)
	if after := hashDir(t, db); after != before {
		t.Errorf("read-only -db runs changed the store's files")
	}
	for i, v := range verbs {
		if local[i] != remote[i] {
			t.Errorf("%s differs:\n-remote %s\n-db %s", strings.Join(v, " "), remote[i], local[i])
		}
	}
	if !strings.Contains(local[9], "execution,metric,value") || !strings.Contains(local[8], "streamed 5 rows") {
		t.Errorf("-csv or -stream printed nothing:\n%s\n%s", local[9], local[8])
	}

	for _, j := range []string{"1", "2"} {
		served, direct := filepath.Join(work, "served-"+j), filepath.Join(work, "direct-"+j)
		c.run("ptinit", "-db", served, "-machines", "-maxnodes", "2")
		c.run("ptinit", "-db", direct, "-machines", "-maxnodes", "2")
		base, stop := c.serve(served)
		got, _ := c.runSplit("ptload", append([]string{"-remote", base, "-j", j}, files...)...)
		stop()
		want, _ := c.runSplit("ptload", append([]string{"-db", direct, "-j", j}, files...)...)
		if got != want || !strings.Contains(got, "store now holds 3 executions, 24 results") {
			t.Errorf("ptload -j %s:\n-remote:\n%s\n-db:\n%s", j, got, want)
		}
	}
}

// hashDir hashes the names and contents of every file under dir.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
