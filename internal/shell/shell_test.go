package shell

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// loadPTdf commits PTdf lines to s as one document.
func loadPTdf(t *testing.T, s *datastore.Store, lines ...string) {
	t.Helper()
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}
}

// sessionStore builds a small study for driving the interactive surface.
func sessionStore(t *testing.T) *datastore.Store {
	t.Helper()
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	loadPTdf(t, s,
		"Resource /irs application",
		"Resource /GF/Frost/batch/n1/p0 grid/machine/partition/node/processor",
		"ResourceAttribute /GF/Frost vendor IBM string",
		"Execution e1 irs",
		"Resource /e1 execution e1",
		"ResourceAttribute /e1 nprocs 4 string",
		`PerfResult e1 /irs,/GF/Frost,/e1(primary) test "wall time" 10 seconds`,
		`PerfResult e1 /irs,/GF/Frost,/e1(primary) test "wall time" 20 seconds`,
		`PerfResult e1 /irs,/GF/Frost,/e1(primary) test "cpu time" 30 seconds`)
	return s
}

// run executes a scripted session and returns the combined output.
func run(t *testing.T, store *datastore.Store, script string) string {
	t.Helper()
	var out bytes.Buffer
	sess := New(store, &out)
	if err := sess.Run(strings.NewReader(script), false); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestSessionBrowsing(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "types\nresources grid/machine\nchildren /GF/Frost\nshow /GF/Frost\n")
	for _, want := range []string{
		"grid/machine/partition/node/processor", // types
		"/GF/Frost",                             // resources
		"/GF/Frost/batch",                       // children
		"vendor = IBM",                          // show
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSessionFilterWorkflowFigure3(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "family name=/GF/Frost;rel=D\nfamily type=application\nfamilies\n")
	if !strings.Contains(out, "whole filter now matches 3") {
		t.Errorf("live counts missing:\n%s", out)
	}
	if !strings.Contains(out, "whole pr-filter: 3 results") {
		t.Errorf("families summary missing:\n%s", out)
	}
}

func TestSessionTwoStepTableFigure4(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, strings.Join([]string{
		"family type=application",
		"fetch",
		"free",
		"addcol execution.nprocs",
		"metric wall time",
		"sort value desc",
		"table",
	}, "\n"))
	if !strings.Contains(out, "retrieved 3 results") {
		t.Errorf("fetch missing:\n%s", out)
	}
	if !strings.Contains(out, "hid 1 rows") {
		t.Errorf("metric filter missing:\n%s", out)
	}
	// Sorted descending: 20 before 10.
	i20 := strings.Index(out, "20")
	i10 := strings.LastIndex(out, "10")
	if i20 < 0 || i10 < 0 || i20 > i10 {
		t.Errorf("sort order wrong:\n%s", out)
	}
	if !strings.Contains(out, "execution.nprocs") {
		t.Errorf("added column missing:\n%s", out)
	}
}

func TestSessionChartFigure5(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "family type=application\nfetch\nchart metric max\n")
	if !strings.Contains(out, "#") || !strings.Contains(out, "wall time") {
		t.Errorf("chart missing:\n%s", out)
	}
}

func TestSessionExportAndSQL(t *testing.T) {
	s := sessionStore(t)
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	out := run(t, s, "family type=application\nfetch\nexport "+csvPath+
		"\nsql SELECT COUNT(*) FROM performance_result\n")
	if !strings.Contains(out, "wrote "+csvPath) {
		t.Errorf("export missing:\n%s", out)
	}
	if !strings.Contains(out, "3") {
		t.Errorf("sql output missing:\n%s", out)
	}
}

func TestSessionDetailAndStats(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "detail e1\nstats\n")
	if !strings.Contains(out, "e1 (irs): 3 results") {
		t.Errorf("detail missing:\n%s", out)
	}
	if !strings.Contains(out, "executions 1") {
		t.Errorf("stats missing:\n%s", out)
	}
}

func TestSessionErrorsAreReportedNotFatal(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, strings.Join([]string{
		"bogus",
		"table",       // before fetch
		"free",        // before fetch
		"addcol x",    // before fetch
		"sort x",      // before fetch
		"chart x",     // before fetch
		"resources",   // missing arg
		"children /x", // unknown resource
		"family rel=Z",
		"stats", // still works after errors
	}, "\n"))
	if got := strings.Count(out, "error:"); got != 9 {
		t.Errorf("expected 9 error lines, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "executions 1") {
		t.Errorf("session died after errors:\n%s", out)
	}
}

func TestSessionClearAndQuit(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "family type=application\nclear\nfamilies\nquit\nnever-reached\n")
	if !strings.Contains(out, "cleared") {
		t.Errorf("clear missing:\n%s", out)
	}
	if !strings.Contains(out, "whole pr-filter: 3 results") {
		t.Errorf("empty filter should match all:\n%s", out)
	}
	if strings.Contains(out, "never-reached") || strings.Contains(out, "unknown command \"never-reached\"") {
		t.Errorf("quit did not stop the session:\n%s", out)
	}
}

func TestSessionImportRoundTrip(t *testing.T) {
	s := sessionStore(t)
	csvPath := filepath.Join(t.TempDir(), "rt.csv")
	run(t, s, "family type=application\nfetch\nexport "+csvPath+"\n")
	// Import into a fresh session: the detached table sorts and charts but
	// refuses free-resource analysis.
	out := run(t, s, "import "+csvPath+"\nsort value desc\ntable\nfree\n")
	if !strings.Contains(out, "imported 3 rows") {
		t.Errorf("import missing:\n%s", out)
	}
	if !strings.Contains(out, "wall time") {
		t.Errorf("table after import:\n%s", out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "detached") {
		t.Errorf("free on detached table should error:\n%s", out)
	}
	out = run(t, s, "import /nonexistent.csv\n")
	if !strings.Contains(out, "error:") {
		t.Errorf("missing-file import should error:\n%s", out)
	}
}

func TestSessionCompare(t *testing.T) {
	s := sessionStore(t)
	// A second execution with a slower wall time for the bottleneck list.
	loadPTdf(t, s, "Execution e2 irs", `PerfResult e2 /irs,/GF/Frost(primary) test "wall time" 50 seconds`)
	out := run(t, s, "compare e1 e2\ncompare e1 nosuch\ncompare onearg\n")
	if !strings.Contains(out, "e1 vs e2:") || !strings.Contains(out, "geomean ratio") {
		t.Errorf("compare output missing:\n%s", out)
	}
	if !strings.Contains(out, "top bottlenecks in B:") {
		t.Errorf("bottlenecks missing:\n%s", out)
	}
	if strings.Count(out, "error:") != 2 {
		t.Errorf("error handling:\n%s", out)
	}
}

func TestSessionHistogramSparkline(t *testing.T) {
	s := sessionStore(t)
	loadPTdf(t, s, "PerfHistogram e1 /irs(primary) Paradyn cpu_inclusive 0.2 units/second 1,2,3,4")
	ids, err := s.ExecutionResultIDs("e1")
	if err != nil {
		t.Fatal(err)
	}
	id := ids[len(ids)-1]
	out := run(t, s, "hist "+strconvItoa(id)+"\nhist 999\nhist notanumber\n")
	if !strings.Contains(out, "cpu_inclusive (Paradyn), 4 bins x 0.2s") {
		t.Errorf("hist header missing:\n%s", out)
	}
	if !strings.Contains(out, "▁") || !strings.Contains(out, "█") {
		t.Errorf("sparkline missing:\n%s", out)
	}
	if strings.Count(out, "error:") != 2 {
		t.Errorf("error handling:\n%s", out)
	}
}

func strconvItoa(v int64) string {
	return fmt.Sprintf("%d", v)
}

func TestSessionHelp(t *testing.T) {
	s := sessionStore(t)
	out := run(t, s, "help\n")
	for _, want := range []string{"family SPEC", "fetch", "chart", "export"} {
		if !strings.Contains(out, want) {
			t.Errorf("help missing %q", want)
		}
	}
}
