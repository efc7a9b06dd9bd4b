package datastore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// openEngine opens a file engine for persistence tests.
// eachRow visits a table's rows in primary-key order, each as its row ID
// and a Row, until fn returns false.
func eachRow(tab *reldb.Table, fn func(id int64, row reldb.Row) bool) {
	var slab []reldb.Value
	tab.Lookup("", nil, func(b *reldb.ColumnBlock, i int) bool { return fn(b.IDs().At(i), b.Row(i, &slab)) })
}

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

// load commits PTdf lines as one document, failing the test on error.
func load(t testing.TB, s *Store, lines ...string) {
	t.Helper()
	if err := tryLoad(s, lines...); err != nil {
		t.Fatal(err)
	}
}

// tryLoad commits PTdf lines as one document.
func tryLoad(s *Store, lines ...string) error {
	_, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(strings.Join(lines, "\n")))
	return err
}

// resourceID is the ID the names directory holds for a resource.
func resourceID(t testing.TB, s *Store, name core.ResourceName) int64 {
	t.Helper()
	id, ok := s.LookupDict("resource_item", string(name))
	if !ok {
		t.Fatalf("no resource %q", name)
	}
	return id
}

// TestOpenBootstrapsSchemaAndBaseTypes: a fresh store has every Figure 1
// table and every base type, staged as one batch: one commit.
func TestOpenBootstrapsSchemaAndBaseTypes(t *testing.T) {
	s := newStore(t)
	for _, table := range tableNames {
		if _, ok := s.Engine().Table(table); !ok {
			t.Errorf("table %q missing", table)
		}
	}
	ts := s.Types()
	for _, typ := range core.BaseTypes() {
		if !ts.Has(typ) {
			t.Errorf("base type %q not bootstrapped", typ)
		}
	}
	if got := s.Generation(); got != 1 {
		t.Errorf("generation after bootstrap = %d, want 1 (one commit)", got)
	}
}

// TestOpenAddsBaseTypesAfterSchemaOnly: a first open cut short after its
// CREATE TABLEs (under -sync each is durable as it runs) leaves the schema
// and no type. The next open adds the base types, and a resource of one
// loads; an open of a store holding them all commits nothing.
func TestOpenAddsBaseTypesAfterSchemaOnly(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ensureSchema(fe); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 2; open++ {
		fe, err := reldb.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(fe)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.Types().All()); n != len(core.BaseTypes()) {
			t.Errorf("open %d: %d types, want the %d base types", open, n, len(core.BaseTypes()))
		}
		if want := uint64(2 - open); s.Generation() != want {
			t.Errorf("open %d: generation %d, want %d", open, s.Generation(), want)
		}
		if err := tryLoad(s, "Resource /m grid"); err != nil {
			t.Errorf("open %d: %v", open, err)
		}
		if err := fe.Close(); err != nil {
			t.Fatal(err)
		}
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
	load(t, s, "Resource /SingleMachineFrost/Frost/batch/frost121/p0 grid/machine/partition/node/processor")
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
	load(t, s, "Resource /irs application", "Execution e1 irs", "ResourceType syncObject")
	id1, before := resourceID(t, s, "/irs"), s.Stats()
	// Re-adding a resource, an execution under its application or a type
	// is a no-op, in a batch of its own or twice in one.
	load(t, s, "Resource /irs application", "Execution e1 irs", "ResourceType syncObject", "Resource /irs application")
	if id2 := resourceID(t, s, "/irs"); id1 != id2 {
		t.Errorf("re-add returned new id %d != %d", id2, id1)
	}
	if after := s.Stats(); after != before {
		t.Errorf("re-adds wrote rows: before %+v after %+v", before, after)
	}
}

func TestAddResourceRejectsTypeMismatch(t *testing.T) {
	s := newStore(t)
	if err := tryLoad(s, "Resource /a/b application"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("depth mismatch: err = %v, want ErrBadSpec", err)
	}
	if err := tryLoad(s, "Resource /a nosuchtype"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown type: err = %v, want ErrBadSpec", err)
	}
	// Redefining a resource's type or an execution's application is a
	// conflict, not a silent aliasing.
	load(t, s, "Resource /m grid", "Execution e1 app")
	if err := tryLoad(s, "Resource /m application"); !errors.Is(err, ErrExists) {
		t.Errorf("resource type changed: err = %v, want ErrExists", err)
	}
	if err := tryLoad(s, "Execution e1 other"); !errors.Is(err, ErrExists) {
		t.Errorf("execution application changed: err = %v, want ErrExists", err)
	}
}

func TestResourceAttributesAndConstraints(t *testing.T) {
	s := newStore(t)
	load(t, s,
		"Resource /M/m/b/n16 grid/machine/partition/node",
		"Execution e1 irs",
		"Resource /e1/p8 execution/process e1",
		`ResourceAttribute /M/m/b/n16 "memory GB" 16 string`,
		// §3.1's example: process 8 runs on node 16.
		"ResourceConstraint /e1/p8 /M/m/b/n16")
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
	if err := tryLoad(s, "ResourceAttribute /nope a b string"); !errors.Is(err, ErrNotFound) {
		t.Errorf("attribute on missing resource: err = %v, want ErrNotFound", err)
	}
	if err := tryLoad(s, "ResourceConstraint /nope /also-nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("constraint on missing resources: err = %v, want ErrNotFound", err)
	}
}

func TestTypeExtension(t *testing.T) {
	s := newStore(t)
	// §4.3: a brand-new top-level hierarchy for Paradyn syncObjects.
	load(t, s,
		"ResourceType syncObject",
		"ResourceType syncObject/communicator",
		"Resource /comm/MPI_COMM_WORLD syncObject/communicator")
	if err := tryLoad(s, "ResourceType nochild/without/parent"); err == nil {
		t.Error("orphan type accepted")
	}
}

func TestAncestorsDescendantsBothPaths(t *testing.T) {
	s := newStore(t)
	load(t, s,
		"Resource /G/M/b/n1/p0 grid/machine/partition/node/processor",
		"Resource /G/M/b/n1/p1 grid/machine/partition/node/processor")
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
	load(t, s,
		"Resource /G/M/b/n1/p0 grid/machine/partition/node/processor",
		"Resource /G/M/b/n2/p0 grid/machine/partition/node/processor")
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
	load(t, s,
		"Resource /GF/Frost/batch grid/machine/partition",
		"Resource /GM/MCR/batch grid/machine/partition",
		"Resource /GM/MCR/debug grid/machine/partition")
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

func addResult(t testing.TB, s *Store, exec, metric string, value float64, resources ...core.ResourceName) int64 {
	t.Helper()
	if err := commitOne(s, ptdf.PerfResultRec{
		Exec: exec, Metric: metric, Value: value, Units: "seconds", Tool: "test",
		Sets: []ptdf.ResourceSet{{Names: resources, Type: core.FocusPrimary}},
	}); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ExecutionResultIDs(exec)
	if err != nil {
		t.Fatal(err)
	}
	return ids[len(ids)-1] // the newest
}

// seedStudy builds a small two-machine, two-execution study.
func seedStudy(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	load(t, s,
		"Resource /irs application",
		"Resource /GF/Frost/batch/n1/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n1/p0 grid/machine/partition/node/processor",
		"Execution irs-frost irs",
		"Execution irs-mcr irs",
		`PerfResult irs-frost /irs,/GF/Frost(primary) test "wall time" 120 seconds`,
		`PerfResult irs-frost /irs,/GF/Frost(primary) test "cpu time" 110 seconds`,
		`PerfResult irs-mcr /irs,/GM/MCR(primary) test "wall time" 80 seconds`,
		`PerfResult irs-frost /irs,/GF/Frost/batch/n1/p0(primary) test "proc time" 2.5 seconds`)
	return s
}

func TestAddPerfResultAndFetch(t *testing.T) {
	s := seedStudy(t)
	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
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
	load(t, s, "Resource /irs application")
	if err := tryLoad(s, "PerfResult nope /irs(primary) test t 1 s"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown execution: err = %v, want ErrNotFound", err)
	}
}

func TestPerfResultUnknownResource(t *testing.T) {
	s := newStore(t)
	load(t, s, "Execution e1 app")
	if err := tryLoad(s, "PerfResult e1 /ghost(primary) test t 1 s"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown context resource: err = %v, want ErrNotFound", err)
	}
}

func TestFocusDeduplication(t *testing.T) {
	// "a single context can apply to multiple performance results."
	s := newStore(t)
	load(t, s, "Resource /irs application", "Execution e1 irs")
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
	load(t, s,
		"Resource /irs application",
		"Resource /bld/main.c/caller build/module/function",
		"Resource /bld/main.c/callee build/module/function",
		"Execution e1 irs",
		`PerfResult e1 /bld/main.c/caller(parent):/bld/main.c/callee(child) mpiP "MPI time" 3 ""`)
	ids, _ := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	pr, err := s.ResultByID(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Contexts) != 2 {
		t.Fatalf("contexts = %+v", pr.Contexts)
	}
	// Filter by the callee family alone still finds the result.
	prf := core.PRFilter{Families: []core.Family{core.NewFamily("/bld/main.c/callee")}}
	n, err := s.CountMatchesCtx(context.Background(), prf)
	if err != nil || n != 1 {
		t.Errorf("callee filter matches = %d, %v", n, err)
	}
}

func TestApplyFilterByTypeNameAttrs(t *testing.T) {
	s := seedStudy(t)
	load(t, s, "ResourceAttribute /GF/Frost vendor IBM string", "ResourceAttribute /GM/MCR vendor LNXI string")

	fam, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Type: "grid/machine"})
	if err != nil || fam.Size() != 2 {
		t.Errorf("by type: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil || fam.Size() != 4 { // Frost, batch, n1, p0
		t.Errorf("by name + D: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilterCtx(context.Background(), core.ResourceFilter{BaseName: "batch"})
	if err != nil || fam.Size() != 2 {
		t.Errorf("by base name: %v, %v", fam.Members(), err)
	}
	fam, err = s.ApplyFilterCtx(context.Background(), core.ResourceFilter{
		Type:  "grid/machine",
		Attrs: []core.AttrPredicate{{Attr: "vendor", Cmp: core.CmpEq, Value: "IBM"}},
	})
	if err != nil || fam.Size() != 1 || !fam.Contains("/GF/Frost") {
		t.Errorf("by attrs: %v, %v", fam.Members(), err)
	}
}

func TestPRFilterQueryAgainstStore(t *testing.T) {
	s := seedStudy(t)
	frost, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil {
		t.Fatal(err)
	}
	app, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Type: "application"})
	if err != nil {
		t.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{frost, app}}
	ids, err := s.MatchingResultIDsCtx(context.Background(), prf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.MaterializeResultsCtx(context.Background(), ids)
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
	frost, _ := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	mcr, _ := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GM/MCR", Include: core.IncludeDescendants})

	nFrost, err := s.CountFamilyMatchesCtx(context.Background(), frost)
	if err != nil || nFrost != 3 {
		t.Errorf("frost family = %d, %v", nFrost, err)
	}
	nMCR, err := s.CountFamilyMatchesCtx(context.Background(), mcr)
	if err != nil || nMCR != 1 {
		t.Errorf("mcr family = %d, %v", nMCR, err)
	}
	// Both families together: no result touches both machines.
	n, err := s.CountMatchesCtx(context.Background(), core.PRFilter{Families: []core.Family{frost, mcr}})
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
	load(t, s, "Resource /irs application", "Execution e1 irs")
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
	ids, err := s2.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil || len(ids) != 1 {
		t.Fatalf("results after reopen = %v, %v", ids, err)
	}
	pr, err := s2.ResultByID(ids[0])
	if err != nil || pr.Value != 9.5 {
		t.Errorf("result = %+v, %v", pr, err)
	}
	// The type system is restored; extensions still work.
	if err := tryLoad(s2, "ResourceType time/interval/phase"); err != nil {
		t.Errorf("type extension after reopen: %v", err)
	}
	addResult(t, s2, "e1", "wall2", 1.5, "/irs")
}

func TestConcurrentLoadersAndReaders(t *testing.T) {
	// Multiple goroutines load different executions while readers run
	// pr-filter queries — the multi-scientist sharing scenario of §1.
	s := newStore(t)
	load(t, s, "Resource /irs application")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < 5; e++ {
				exec := fmt.Sprintf("w%d-e%d", w, e)
				doc := []string{"Execution " + exec + " irs", "Resource /" + exec + " execution " + exec}
				for r := 0; r < 10; r++ {
					doc = append(doc, fmt.Sprintf("PerfResult %s /irs,/%s(primary) test m%d %d s", exec, exec, r, r))
				}
				if err := tryLoad(s, doc...); err != nil {
					errs <- err
					return
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
				if _, err := s.CountFamilyMatchesCtx(context.Background(), fam); err != nil {
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
	// Simulate a store whose first open crashed before it created the
	// result_histogram table: every other table of the schema, reopened,
	// and expect Open to create the missing one and the base types.
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
	load(t, s, "Resource /app application", "Execution e1 app", "PerfHistogram e1 /app(primary) t m 0.1 u 1")
}

// TestSQLInterfaceOverStore runs a physical-schema JOIN the way the
// planner's raw-sql path does (this package cannot import the planner):
// the sqldb executor over a source that streams the engine's tables.
func TestSQLInterfaceOverStore(t *testing.T) {
	s := seedStudy(t)
	sel, err := sqldb.Parse(`SELECT m.name, COUNT(*) FROM performance_result pr
		JOIN metric m ON pr.metric_id = m.id GROUP BY m.name ORDER BY m.name`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sqldb.Execute(context.Background(), sel, func(name string) ([]string, func(func(reldb.Row) error) error, bool) {
		tab, ok := s.Table(name)
		if !ok {
			return nil, nil, false
		}
		var cols []string
		for _, c := range tab.Schema().Columns {
			cols = append(cols, c.Name)
		}
		return cols, func(yield func(reldb.Row) error) error {
			var err error
			eachRow(tab, func(_ int64, row reldb.Row) bool {
				err = yield(row)
				return err == nil
			})
			return err
		}, true
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
// up and the seven indexes no reader named. A directory this program wrote renders the same text once closed
// and reopened, and the reopen logs nothing.
func TestSchemaDDLGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "figure1.ddl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := newStore(t).SchemaDDL(); got != string(golden) {
		t.Errorf("fresh store renders a different Figure 1:\n%s", got)
	}

	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fe); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	fe, err = reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	walBefore := fe.Stats().WALBytes
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if walAfter := fe.Stats().WALBytes; walAfter != walBefore {
		t.Errorf("reopening the store logged %d WAL bytes", walAfter-walBefore)
	}
	if got := s.SchemaDDL(); got != string(golden) {
		t.Errorf("the reopened store renders a different Figure 1:\n%s", got)
	}
}

// TestSchemaMismatchIsRefused: a table that differs from Figure 1's makes
// Open fail with reldb.ErrFormat, which says to re-load the store from
// PTdf, and log nothing. Three stores an older program left: one whose
// resource_attribute lacks its (name, value) index, one whose
// performance_result still carries the metric_id index, and one whose
// focus still carries the signature column.
func TestSchemaMismatchIsRefused(t *testing.T) {
	for _, c := range []struct {
		table string
		old   func(*reldb.Schema) // Figure 1's table as the older program had it
	}{
		{"resource_attribute", func(sc *reldb.Schema) {
			sc.Indexes = slices.DeleteFunc(sc.Indexes, func(ix reldb.IndexSpec) bool { return ix.Name == "resource_attribute_name" })
		}},
		{"performance_result", func(sc *reldb.Schema) {
			sc.Indexes = append(sc.Indexes, reldb.IndexSpec{Name: "performance_result_metric", Columns: []string{"metric_id"}})
		}},
		{"focus", func(sc *reldb.Schema) {
			sc.Columns = append(sc.Columns, reldb.Column{Name: "signature", Type: reldb.KindString})
		}},
	} {
		dir := t.TempDir()
		fe, err := reldb.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range figure1 {
			sc := want.Clone()
			if sc.Name == c.table {
				c.old(sc)
			}
			if err := fe.CreateTable(sc); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := fe.Insert("focus_framework", reldb.Row{reldb.Null(), reldb.Str("grid"), reldb.Null()}); err != nil {
			t.Fatal(err)
		}
		if err := fe.Close(); err != nil {
			t.Fatal(err)
		}

		fe2, err := reldb.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := fe2.Table(c.table)
		ddlBefore, walBefore := tab.Schema().DDL(), fe2.Stats().WALBytes
		_, err = Open(fe2)
		if !errors.Is(err, reldb.ErrFormat) || !strings.Contains(err.Error(), "re-load it from PTdf") || !strings.Contains(err.Error(), c.table) {
			t.Errorf("Open over a %s that is not Figure 1's = %v, want reldb.ErrFormat naming it", c.table, err)
		}
		if walAfter := fe2.Stats().WALBytes; walAfter != walBefore {
			t.Errorf("%s: the refused open logged %d WAL bytes", c.table, walAfter-walBefore)
		}
		if tab, _ := fe2.Table(c.table); tab.Schema().DDL() != ddlBefore {
			t.Errorf("the refused open changed %s:\n%s", c.table, tab.Schema().DDL())
		}
		fe2.Close()
	}
}
