package datastore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// openEngine opens a file engine for persistence tests.
func openEngine(dir string) (*reldb.DB, error) {
	return reldb.OpenFile(dir)
}

// newStore opens a store in memory that the test closes.
func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(reldb.NewMem())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Engine().Close() })
	return s
}

func TestOpenBootstrapsSchemaAndBaseTypes(t *testing.T) {
	s := newStore(t)
	for _, table := range tableNames {
		if _, ok := s.Engine().Table(table); !ok {
			t.Errorf("table %q missing", table)
		}
	}
	ts := s.Types()
	if !ts.Has("grid/machine/partition/node/processor") || !ts.Has("application") {
		t.Error("base types not bootstrapped")
	}
}

func TestSchemaDDLShowsFigure1Tables(t *testing.T) {
	s := newStore(t)
	ddl := s.SchemaDDL()
	for _, want := range []string{
		"CREATE TABLE resource_item",
		"CREATE TABLE performance_result",
		"CREATE TABLE resource_constraint",
		"CREATE TABLE resource_has_ancestor",
		"focus_framework_id",
		"FOREIGN KEY (parent_id) REFERENCES resource_item (id)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("schema DDL missing %q", want)
		}
	}
}

func TestAddResourceCreatesAncestors(t *testing.T) {
	s := newStore(t)
	_, err := s.AddResource("/SingleMachineFrost/Frost/batch/frost121/p0",
		"grid/machine/partition/node/processor", "")
	if err != nil {
		t.Fatal(err)
	}
	// All four ancestors exist with the right types.
	for name, typ := range map[core.ResourceName]core.TypePath{
		"/SingleMachineFrost":                      "grid",
		"/SingleMachineFrost/Frost":                "grid/machine",
		"/SingleMachineFrost/Frost/batch":          "grid/machine/partition",
		"/SingleMachineFrost/Frost/batch/frost121": "grid/machine/partition/node",
	} {
		res, err := s.ResourceByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Type != typ {
			t.Errorf("%s type = %q, want %q", name, res.Type, typ)
		}
	}
}

func TestAddResourceIdempotent(t *testing.T) {
	s := newStore(t)
	id1, err := s.AddResource("/irs", "application", "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.AddResource("/irs", "application", "")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("re-add returned new id %d != %d", id2, id1)
	}
}

func TestAddResourceRejectsTypeMismatch(t *testing.T) {
	s := newStore(t)
	if _, err := s.AddResource("/a/b", "application", ""); err == nil {
		t.Error("depth mismatch accepted")
	}
	if _, err := s.AddResource("/a", "nosuchtype", ""); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestResourceAttributesAndConstraints(t *testing.T) {
	s := newStore(t)
	if _, err := s.AddResource("/M/m/b/n16", "grid/machine/partition/node", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("e1", "irs"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/e1/p8", "execution/process", "e1"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResourceAttribute("/M/m/b/n16", "memory GB", "16"); err != nil {
		t.Fatal(err)
	}
	// §3.1's example: process 8 runs on node 16.
	if err := s.AddResourceConstraint("/e1/p8", "/M/m/b/n16"); err != nil {
		t.Fatal(err)
	}
	res, err := s.ResourceByName("/M/m/b/n16")
	if err != nil {
		t.Fatal(err)
	}
	if res.Attributes["memory GB"] != "16" {
		t.Errorf("attributes = %v", res.Attributes)
	}
	proc, err := s.ResourceByName("/e1/p8")
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.Constraints) != 1 || proc.Constraints[0] != "/M/m/b/n16" {
		t.Errorf("constraints = %v", proc.Constraints)
	}
}

func TestAttributeOnMissingResource(t *testing.T) {
	s := newStore(t)
	if err := s.SetResourceAttribute("/nope", "a", "b"); err == nil {
		t.Error("attribute on missing resource accepted")
	}
	if err := s.AddResourceConstraint("/nope", "/also-nope"); err == nil {
		t.Error("constraint on missing resources accepted")
	}
}

func TestTypeExtension(t *testing.T) {
	s := newStore(t)
	// §4.3: a brand-new top-level hierarchy for Paradyn syncObjects.
	if err := s.AddResourceType("syncObject"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddResourceType("syncObject/communicator"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/comm/MPI_COMM_WORLD", "syncObject/communicator", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.AddResourceType("nochild/without/parent"); err == nil {
		t.Error("orphan type accepted")
	}
}

func TestAncestorsDescendantsBothPaths(t *testing.T) {
	s := newStore(t)
	if _, err := s.AddResource("/G/M/b/n1/p0", "grid/machine/partition/node/processor", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/G/M/b/n1/p1", "grid/machine/partition/node/processor", ""); err != nil {
		t.Fatal(err)
	}
	for _, useClosure := range []bool{true, false} {
		s.UseClosureTables = useClosure
		anc, err := s.Ancestors("/G/M/b/n1/p0")
		if err != nil {
			t.Fatal(err)
		}
		if len(anc) != 4 {
			t.Errorf("closure=%v: ancestors = %v", useClosure, anc)
		}
		desc, err := s.Descendants("/G/M/b")
		if err != nil {
			t.Fatal(err)
		}
		if len(desc) != 3 { // n1, p0, p1
			t.Errorf("closure=%v: descendants = %v", useClosure, desc)
		}
	}
}

func TestChildrenLazyFetch(t *testing.T) {
	s := newStore(t)
	s.AddResource("/G/M/b/n1/p0", "grid/machine/partition/node/processor", "")
	s.AddResource("/G/M/b/n2/p0", "grid/machine/partition/node/processor", "")
	kids, err := s.Children("/G/M/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "/G/M/b/n1" || kids[1] != "/G/M/b/n2" {
		t.Errorf("children = %v", kids)
	}
}

func TestResourcesOfTypeAndBaseName(t *testing.T) {
	s := newStore(t)
	s.AddResource("/GF/Frost/batch", "grid/machine/partition", "")
	s.AddResource("/GM/MCR/batch", "grid/machine/partition", "")
	s.AddResource("/GM/MCR/debug", "grid/machine/partition", "")
	byType, err := s.ResourcesOfType("grid/machine/partition")
	if err != nil {
		t.Fatal(err)
	}
	if len(byType) != 3 {
		t.Errorf("byType = %v", byType)
	}
	byBase, err := s.ResourcesWithBaseName("batch")
	if err != nil {
		t.Fatal(err)
	}
	if len(byBase) != 2 {
		t.Errorf("byBase = %v", byBase)
	}
}

func addResult(t *testing.T, s *Store, exec, metric string, value float64, resources ...core.ResourceName) int64 {
	t.Helper()
	id, err := s.AddPerfResult(&core.PerformanceResult{
		Execution: exec, Metric: metric, Value: value, Units: "seconds", Tool: "test",
		Contexts: []core.Context{core.NewContext(resources...)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// seedStudy builds a small two-machine, two-execution study.
func seedStudy(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	s.AddResource("/irs", "application", "")
	s.AddResource("/GF/Frost/batch/n1/p0", "grid/machine/partition/node/processor", "")
	s.AddResource("/GM/MCR/batch/n1/p0", "grid/machine/partition/node/processor", "")
	if _, err := s.AddExecution("irs-frost", "irs"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("irs-mcr", "irs"); err != nil {
		t.Fatal(err)
	}
	addResult(t, s, "irs-frost", "wall time", 120, "/irs", "/GF/Frost")
	addResult(t, s, "irs-frost", "cpu time", 110, "/irs", "/GF/Frost")
	addResult(t, s, "irs-mcr", "wall time", 80, "/irs", "/GM/MCR")
	addResult(t, s, "irs-frost", "proc time", 2.5, "/irs", "/GF/Frost/batch/n1/p0")
	return s
}

func TestAddPerfResultAndFetch(t *testing.T) {
	s := seedStudy(t)
	ids, err := s.MatchingResultIDs(core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("results = %d", len(ids))
	}
	pr, err := s.ResultByID(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pr.Execution != "irs-frost" || pr.Metric != "wall time" || pr.Value != 120 {
		t.Errorf("result = %+v", pr)
	}
	if len(pr.Contexts) != 1 || len(pr.Contexts[0].Resources) != 2 {
		t.Errorf("contexts = %+v", pr.Contexts)
	}
}

func TestPerfResultUnknownExecution(t *testing.T) {
	s := newStore(t)
	s.AddResource("/irs", "application", "")
	_, err := s.AddPerfResult(&core.PerformanceResult{
		Execution: "nope", Metric: "t", Value: 1,
		Contexts: []core.Context{core.NewContext("/irs")},
	})
	if err == nil {
		t.Error("unknown execution accepted")
	}
}

func TestPerfResultUnknownResource(t *testing.T) {
	s := newStore(t)
	s.AddExecution("e1", "app")
	_, err := s.AddPerfResult(&core.PerformanceResult{
		Execution: "e1", Metric: "t", Value: 1,
		Contexts: []core.Context{core.NewContext("/ghost")},
	})
	if err == nil {
		t.Error("unknown context resource accepted")
	}
}

func TestFocusDeduplication(t *testing.T) {
	// "a single context can apply to multiple performance results."
	s := newStore(t)
	s.AddResource("/irs", "application", "")
	s.AddExecution("e1", "irs")
	addResult(t, s, "e1", "m1", 1, "/irs")
	addResult(t, s, "e1", "m2", 2, "/irs")
	fTab, _ := s.Engine().Table("focus")
	if fTab.Len() != 1 {
		t.Errorf("focus rows = %d, want 1 (deduplicated)", fTab.Len())
	}
}

func TestMultiContextResult(t *testing.T) {
	// §4.2: two resource sets per result (mpiP caller/callee).
	s := newStore(t)
	s.AddResource("/irs", "application", "")
	s.AddResource("/bld/main.c/caller", "build/module/function", "")
	s.AddResource("/bld/main.c/callee", "build/module/function", "")
	s.AddExecution("e1", "irs")
	_, err := s.AddPerfResult(&core.PerformanceResult{
		Execution: "e1", Metric: "MPI time", Value: 3, Tool: "mpiP",
		Contexts: []core.Context{
			{Type: core.FocusParent, Resources: []core.ResourceName{"/bld/main.c/caller"}},
			{Type: core.FocusChild, Resources: []core.ResourceName{"/bld/main.c/callee"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := s.MatchingResultIDs(core.PRFilter{})
	pr, err := s.ResultByID(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Contexts) != 2 {
		t.Fatalf("contexts = %+v", pr.Contexts)
	}
	// Filter by the callee family alone still finds the result.
	prf := core.PRFilter{Families: []core.Family{core.NewFamily("/bld/main.c/callee")}}
	n, err := s.CountMatches(prf)
	if err != nil || n != 1 {
		t.Errorf("callee filter matches = %d, %v", n, err)
	}
}

func TestApplyFilterByTypeNameAttrs(t *testing.T) {
	s := seedStudy(t)
	s.SetResourceAttribute("/GF/Frost", "vendor", "IBM")
	s.SetResourceAttribute("/GM/MCR", "vendor", "LNXI")

	fam, err := s.ApplyFilter(core.ResourceFilter{Type: "grid/machine"})
	if err != nil || fam.Size() != 2 {
		t.Errorf("by type: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil || fam.Size() != 4 { // Frost, batch, n1, p0
		t.Errorf("by name + D: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilter(core.ResourceFilter{BaseName: "batch"})
	if err != nil || fam.Size() != 2 {
		t.Errorf("by base name: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilter(core.ResourceFilter{
		Type:  "grid/machine",
		Attrs: []core.AttrPredicate{{Attr: "vendor", Cmp: core.CmpEq, Value: "IBM"}},
	})
	if err != nil || fam.Size() != 1 || !fam.Contains("/GF/Frost") {
		t.Errorf("by attrs: %v, %v", fam.Members(), err)
	}
}

func TestPRFilterQueryAgainstStore(t *testing.T) {
	s := seedStudy(t)
	frost, err := s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil {
		t.Fatal(err)
	}
	app, err := s.ApplyFilter(core.ResourceFilter{Type: "application"})
	if err != nil {
		t.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{frost, app}}
	results, err := s.QueryResults(prf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 { // wall, cpu, proc on Frost
		t.Fatalf("results = %d", len(results))
	}
	for _, pr := range results {
		if pr.Execution != "irs-frost" {
			t.Errorf("unexpected execution %q", pr.Execution)
		}
	}
}

func TestLiveMatchCounts(t *testing.T) {
	// Figure 3 behaviour: per-family counts and whole-filter counts.
	s := seedStudy(t)
	frost, _ := s.ApplyFilter(core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	mcr, _ := s.ApplyFilter(core.ResourceFilter{Name: "/GM/MCR", Include: core.IncludeDescendants})

	nFrost, err := s.CountFamilyMatches(frost)
	if err != nil || nFrost != 3 {
		t.Errorf("frost family = %d, %v", nFrost, err)
	}
	nMCR, err := s.CountFamilyMatches(mcr)
	if err != nil || nMCR != 1 {
		t.Errorf("mcr family = %d, %v", nMCR, err)
	}
	// Both families together: no result touches both machines.
	n, err := s.CountMatches(core.PRFilter{Families: []core.Family{frost, mcr}})
	if err != nil || n != 0 {
		t.Errorf("joint count = %d, %v", n, err)
	}
}

func TestListingHelpers(t *testing.T) {
	s := seedStudy(t)
	if apps, err := s.Applications(); err != nil || len(apps) != 1 || apps[0] != "irs" {
		t.Errorf("apps = %v, %v", apps, err)
	}
	if execs, err := s.Executions(); err != nil || len(execs) != 2 {
		t.Errorf("execs = %v, %v", execs, err)
	}
	if ms, err := s.Metrics(); err != nil || len(ms) != 3 {
		t.Errorf("metrics = %v, %v", ms, err)
	}
	if tools, err := s.Tools(); err != nil || len(tools) != 1 || tools[0] != "test" {
		t.Errorf("tools = %v, %v", tools, err)
	}
}

func TestStatsCounts(t *testing.T) {
	s := seedStudy(t)
	st := s.Stats()
	if st.Applications != 1 || st.Executions != 2 || st.Results != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Resources != 11 { // irs + 2 chains of 5
		t.Errorf("resources = %d", st.Resources)
	}
	if st.DataBytes <= 0 {
		t.Error("DataBytes should be positive")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	s.AddResource("/irs", "application", "")
	s.AddExecution("e1", "irs")
	addResult(t, s, "e1", "wall", 9.5, "/irs")
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	// Caches are warmed: lookups and new loads work.
	if !s2.HasResource("/irs") {
		t.Error("resource lost after reopen")
	}
	ids, err := s2.MatchingResultIDs(core.PRFilter{})
	if err != nil || len(ids) != 1 {
		t.Fatalf("results after reopen = %v, %v", ids, err)
	}
	pr, err := s2.ResultByID(ids[0])
	if err != nil || pr.Value != 9.5 {
		t.Errorf("result = %+v, %v", pr, err)
	}
	// The type system is restored; extensions still work.
	if err := s2.AddResourceType("time/interval/phase"); err != nil {
		t.Errorf("type extension after reopen: %v", err)
	}
	addResult(t, s2, "e1", "wall2", 1.5, "/irs")
}

func TestConcurrentLoadersAndReaders(t *testing.T) {
	// Multiple goroutines load different executions while readers run
	// pr-filter queries — the multi-scientist sharing scenario of §1.
	s := newStore(t)
	s.AddResource("/irs", "application", "")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < 5; e++ {
				exec := fmt.Sprintf("w%d-e%d", w, e)
				if _, err := s.AddExecution(exec, "irs"); err != nil {
					errs <- err
					return
				}
				execRes := core.ResourceName("/" + exec)
				if _, err := s.AddResource(execRes, "execution", exec); err != nil {
					errs <- err
					return
				}
				for r := 0; r < 10; r++ {
					if _, err := s.AddPerfResult(&core.PerformanceResult{
						Execution: exec, Metric: fmt.Sprintf("m%d", r), Value: float64(r),
						Contexts: []core.Context{core.NewContext("/irs", execRes)},
					}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			fam := core.NewFamily("/irs")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.CountFamilyMatches(fam); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Executions != 20 || st.Results != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSchemaMigrationAddsNewTables(t *testing.T) {
	// Simulate a store created by an older version that lacked the
	// result_histogram table: every other table of the schema, reopened,
	// and expect the table recreated by the migration in Open.
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, schema := range figure1 {
		if schema.Name == "result_histogram" {
			continue
		}
		if err := fe.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fe2.Table("result_histogram"); !ok {
		t.Fatal("migration did not recreate result_histogram")
	}
	// The recreated table is usable.
	for _, typ := range core.BaseTypes() {
		if err := s.AddResourceType(typ); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddResource("/app", "application", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("e1", "app"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddHistogramResult(&core.PerformanceResult{
		Execution: "e1", Metric: "m", Tool: "t", Units: "u",
		Contexts: []core.Context{core.NewContext("/app")},
	}, 0.1, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// TestSQLInterfaceOverStore runs a physical-schema JOIN the way the
// planner's raw-sql path does (this package cannot import the planner):
// the sqldb executor over a source that scans the engine's tables.
func TestSQLInterfaceOverStore(t *testing.T) {
	s := seedStudy(t)
	sel, err := sqldb.Parse(`SELECT m.name, COUNT(*) FROM performance_result pr
		JOIN metric m ON pr.metric_id = m.id GROUP BY m.name ORDER BY m.name`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqldb.Execute(sel, func(name string) ([]string, []reldb.Row, bool) {
		tab, ok := s.Table(name)
		if !ok {
			return nil, nil, false
		}
		var cols []string
		for _, c := range tab.Schema().Columns {
			cols = append(cols, c.Name)
		}
		var rows []reldb.Row
		tab.Scan(func(_ int64, row reldb.Row) bool {
			rows = append(rows, row)
			return true
		})
		return cols, rows, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Errorf("metric groups = %d", len(r.Rows))
	}
}

// TestSchemaDDLGolden pins Figure 1: testdata/figure1.ddl is SchemaDDL()
// of a fresh store at the last commit that fed DDL strings through the
// SQL parser, less the focus_signature index the schema has since given
// up, and testdata/parent_store is a directory that commit's ptinit and
// one ptload (of parent_store.ptdf) wrote. Both must render the same
// text; opening the old directory drops that index and writes nothing
// else, and opening an up-to-date store writes nothing at all.
func TestSchemaDDLGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "figure1.ddl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := newStore(t).SchemaDDL(); got != string(golden) {
		t.Errorf("fresh store renders a different Figure 1:\n%s", got)
	}

	dir := copyDir(t, filepath.Join("testdata", "parent_store"))
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	walBefore := fe.Stats().WALBytes
	if _, err := Open(fe); err != nil {
		t.Fatal(err)
	}
	walUpgraded := fe.Stats().WALBytes
	if walUpgraded == walBefore {
		t.Error("opening the parent's store logged no DROP INDEX")
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if walAfter := fe.Stats().WALBytes; walAfter != walUpgraded {
		t.Errorf("opening an up-to-date store logged %d WAL bytes", walAfter-walUpgraded)
	}
	if got := s.SchemaDDL(); got != string(golden) {
		t.Errorf("parent-written store renders a different Figure 1:\n%s", got)
	}
	if st := s.Stats(); st.Executions != 1 || st.Results != 4 {
		t.Errorf("parent-written store holds %d executions, %d results; want 1, 4", st.Executions, st.Results)
	}
}

// copyDir copies the files under src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLegacyStoreParentDirectoryRecoversUnderTailLogs: the directory the
// parent commit wrote (testdata/parent_store, see TestSchemaDDLGolden)
// opens with no upgrade step, takes a load, compacts, and — crashed
// without a checkpoint, which a copy of the directory is — reopens with
// every result, the old ones and the new, materializing the same.
func TestLegacyStoreParentDirectoryRecoversUnderTailLogs(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent_store"))
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	seedSegmentStudy(t, s)
	var ids []int64
	tab, _ := fe.Table("performance_result")
	tab.Scan(func(id int64, _ reldb.Row) bool { ids = append(ids, id); return true })
	for i := 0; i < 40; i++ {
		ids = append(ids, addSegResult(t, s, i))
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, addSegResult(t, s, 40)) // stays in the tail, durable in a tail log alone
	want, err := s.MaterializeResults(ids)
	if err != nil || len(want) != 4+41 {
		t.Fatalf("materialized %d results (err %v), want the parent's 4 and 41 new", len(want), err)
	}
	fe.Stats() // flushes the logs
	if logs, _ := filepath.Glob(filepath.Join(dir, "segments", "tail-*.log")); len(logs) == 0 {
		t.Fatal("no tail log holds the unflushed result")
	}

	fe2, err := reldb.OpenFile(copyDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.MaterializeResults(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the crashed copy materializes %d results differently from the %d loaded", len(got), len(want))
	}
	if st, st2 := s.Stats(), s2.Stats(); st != st2 {
		t.Fatalf("store statistics after the crash = %+v, want %+v", st2, st)
	}
}

func TestSchemaMigrationBackfillsAttributeIndex(t *testing.T) {
	// Simulate a store created by an older version that lacked the
	// resource_attribute (name, value) index the pr-filter fast path
	// scans: drop it, reopen, and expect Open to recreate it backfilled
	// from the existing attribute rows.
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/GF/Frost", "grid/machine", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/GM/MCR", "grid/machine", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResourceAttribute("/GF/Frost", "vendor", "IBM"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetResourceAttribute("/GM/MCR", "vendor", "LNXI"); err != nil {
		t.Fatal(err)
	}
	if err := fe.DropIndex("resource_attribute", "resource_attribute_name"); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	raTab, ok := fe2.Table("resource_attribute")
	if !ok {
		t.Fatal("resource_attribute table missing after reopen")
	}
	if raTab.HasIndex("resource_attribute_name") {
		t.Fatal("index present before migration; DropIndex did not persist")
	}
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if !raTab.HasIndex("resource_attribute_name") {
		t.Fatal("migration did not recreate resource_attribute_name")
	}
	// The backfilled index answers attribute filters over pre-migration rows.
	fam, err := s2.ApplyFilter(core.ResourceFilter{
		Attrs: []core.AttrPredicate{{Attr: "vendor", Cmp: core.CmpEq, Value: "IBM"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fam.Size() != 1 || !fam.Contains("/GF/Frost") {
		t.Fatalf("attribute filter over migrated index = %v", fam.Members())
	}
}
