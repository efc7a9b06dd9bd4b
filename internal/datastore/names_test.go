package datastore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// scanDict is the reference the names directory is checked against: the
// per-query table scan (ID → name at row[1]) that Store.DictNames and
// sortedNames did before the directory existed.
func scanDict(t *testing.T, s *Store, table string) map[int64]string {
	t.Helper()
	tab, ok := s.eng.Table(table)
	if !ok {
		t.Fatalf("no %s table", table)
	}
	out := make(map[int64]string, tab.Len())
	tab.Scan(func(id int64, row reldb.Row) bool {
		out[id] = row[1].Text()
		return true
	})
	return out
}

func sortedValues(m map[int64]string) []string {
	out := make([]string, 0, len(m))
	for _, name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// scanStatistics computes what TableStatistics reports from the rows
// alone, leaving Generation and SegmentRows zero.
func scanStatistics(t *testing.T, s *Store) TableStatistics {
	t.Helper()
	type attr struct {
		rows int64
		vals map[string]struct{}
	}
	attrs := map[string]*attr{}
	raTab, _ := s.eng.Table("resource_attribute")
	raTab.Scan(func(_ int64, row reldb.Row) bool {
		a := attrs[row[2].Text()]
		if a == nil {
			a = &attr{vals: map[string]struct{}{}}
			attrs[row[2].Text()] = a
		}
		a.rows++
		a.vals[row[3].Text()] = struct{}{}
		return true
	})
	var out TableStatistics
	for name, a := range attrs {
		// Past the cap the distinct count stops at one over it.
		distinct := min(len(a.vals), maxAttrStatValues+1)
		out.Attributes = append(out.Attributes, AttributeStat{Name: name, Rows: a.rows, Distinct: int64(distinct)})
	}
	sort.Slice(out.Attributes, func(i, j int) bool { return out.Attributes[i].Name < out.Attributes[j].Name })
	for _, name := range tableNames {
		tab, _ := s.eng.Table(name)
		ts := TableStat{Table: name, Rows: int64(tab.Len())}
		switch {
		case dictOf(name) >= 0 || name == "focus": // names and signatures are unique
			ts.DistinctKeys = ts.Rows
		case name == "resource_attribute":
			ts.DistinctKeys = int64(len(attrs))
		}
		out.Tables = append(out.Tables, ts)
	}
	return out
}

// comparableStatistics drops the fields that do not come from names.
func comparableStatistics(ts TableStatistics) TableStatistics {
	ts.Generation = 0
	ts.Tables = append([]TableStat(nil), ts.Tables...)
	for i := range ts.Tables {
		ts.Tables[i].SegmentRows = 0
	}
	if len(ts.Attributes) == 0 {
		ts.Attributes = nil
	}
	return ts
}

// checkNamesMatchRows asserts that every answer the directory gives
// equals a from-scratch scan of the tables.
func checkNamesMatchRows(t *testing.T, s *Store, step string) {
	t.Helper()
	dicts := map[string]map[int64]string{}
	for k := range dictSpecs {
		table := dictSpecs[k].table
		ref := scanDict(t, s, table)
		dicts[table] = ref
		view := s.Dict(table)
		var maxID int64
		for id, name := range ref {
			maxID = max(maxID, id)
			if got := view.Name(id); got != name {
				t.Fatalf("%s: %s id %d = %q, rows say %q", step, table, id, got, name)
			}
			if got, ok := s.LookupDict(table, name); !ok || got != id {
				t.Fatalf("%s: %s %q = %d (%v), rows say %d", step, table, name, got, ok, id)
			}
		}
		if view.MaxID() != maxID {
			t.Fatalf("%s: %s MaxID = %d, rows say %d", step, table, view.MaxID(), maxID)
		}
		for id := int64(-1); id <= maxID+2; id++ {
			if _, ok := ref[id]; !ok && view.Name(id) != "" {
				t.Fatalf("%s: %s id %d = %q, no such row", step, table, id, view.Name(id))
			}
		}
	}
	if s.Dict("focus").MaxID() != 0 || s.Dict("focus").Name(1) != "" {
		t.Fatalf("%s: a non-dictionary table has a view", step)
	}
	if _, ok := s.LookupDict("focus", "x"); ok {
		t.Fatalf("%s: a non-dictionary table resolves a name", step)
	}

	// Resource → type, from resource_item's focus_framework_id.
	riTab, _ := s.eng.Table("resource_item")
	typeOf := map[core.ResourceName]core.TypePath{}
	riTab.Scan(func(_ int64, row reldb.Row) bool {
		typeOf[core.ResourceName(row[1].Text())] = core.TypePath(dicts["focus_framework"][row[4].Int64()])
		return true
	})
	for name, want := range typeOf {
		if got, err := s.TypeOfResource(name); err != nil || got != want {
			t.Fatalf("%s: TypeOfResource(%s) = %q, %v; rows say %q", step, name, got, err, want)
		}
		if !s.HasResource(name) {
			t.Fatalf("%s: HasResource(%s) = false", step, name)
		}
	}

	// The sorted reports and the type system.
	for table, report := range map[string]func() ([]string, error){
		"application": s.Applications, "execution": s.Executions,
		"metric": s.Metrics, "performance_tool": s.Tools,
	} {
		got, err := report()
		if want := sortedValues(dicts[table]); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s report = %v, %v; rows say %v", step, table, got, err, want)
		}
	}
	var types []string
	for _, tp := range s.Types().All() {
		types = append(types, string(tp))
	}
	if want := sortedValues(dicts["focus_framework"]); !reflect.DeepEqual(types, want) {
		t.Fatalf("%s: Types().All() = %v; rows say %v", step, types, want)
	}

	if got, want := comparableStatistics(s.TableStatistics()), scanStatistics(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TableStatistics =\n%+v\nrows say\n%+v", step, got, want)
	}
}

// namesDoc builds one execution's PTdf: its own resources, attributes, a
// resource type and metrics drawn from small shared pools, and — with
// fail — a last record that rolls the whole document back after all of
// those were interned.
func namesDoc(rng *rand.Rand, exec string, procs int, fail bool) string {
	var b strings.Builder
	app := fmt.Sprintf("app%d", rng.Intn(3))
	fmt.Fprintf(&b, "Application %s\nExecution %s %s\n", app, exec, app)
	fmt.Fprintf(&b, "Resource /%s application\nResource /%s execution %s\n", app, exec, exec)
	fmt.Fprintf(&b, "ResourceType sensor\nResourceType sensor/%s\n", exec)
	fmt.Fprintf(&b, "Resource /%s-rack/probe sensor/%s %s\n", exec, exec, exec)
	fmt.Fprintf(&b, "ResourceAttribute /%s nprocs %d string\n", exec, procs)
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&b, "Resource /%s/p%d execution/process %s\n", exec, p, exec)
		fmt.Fprintf(&b, "ResourceAttribute /%s/p%d rank %d string\n", exec, p, p)
		fmt.Fprintf(&b, "PerfResult %s /%s,/%s/p%d(primary) tool%d \"metric %s %d\" %d.5 units%d\n",
			exec, app, exec, p, rng.Intn(2), exec[:1], rng.Intn(6), p, rng.Intn(2))
	}
	if fail {
		fmt.Fprintf(&b, "PerfResult %s /ghost(primary) tool \"wall time\" 1.5 seconds\n", exec)
	}
	return b.String()
}

// TestNamesMatchRows drives a seeded random history — loads, loads that
// roll back on their last record, DeleteExecution, close + reopen — and
// after every step compares each directory answer with the rows.
func TestNamesMatchRows(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Store, *reldb.DB) {
		fe, err := reldb.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(fe)
		if err != nil {
			t.Fatal(err)
		}
		return s, fe
	}
	s, fe := open()
	defer func() { fe.Close() }()
	checkNamesMatchRows(t, s, "fresh store")

	rng := rand.New(rand.NewSource(1))
	var live []string
	load := func(step, exec string, procs int, fail bool) {
		_, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(namesDoc(rng, exec, procs, fail)))
		if (err != nil) != fail {
			t.Fatalf("%s: load error = %v, want failure %v", step, err, fail)
		}
		if !fail {
			live = append(live, exec)
		}
		checkNamesMatchRows(t, s, step)
	}
	remove := func(step, exec string) {
		if err := s.DeleteExecution(exec); err != nil {
			t.Fatalf("%s: delete %s: %v", step, exec, err)
		}
		checkNamesMatchRows(t, s, step)
	}
	// A wide execution whose deletion leaves resource_item's IDs mostly
	// holes, so the rest of the history runs on the sorted-list storage.
	load("wide load", "wide", 1400, false)
	live = live[:0]
	load("first load", "e-first", 3, false)
	remove("wide delete", "wide")
	if s.names.dict(dictResource).ids == nil {
		t.Fatal("resource_item still indexed by ID after the wide delete")
	}
	for i := 0; i < 40; i++ {
		step := fmt.Sprintf("step %d", i)
		switch op := rng.Intn(10); {
		case op < 2 && len(live) > 1:
			j := rng.Intn(len(live))
			remove(step+" delete", live[j])
			live = append(live[:j], live[j+1:]...)
		case op < 4:
			load(step+" rollback", fmt.Sprintf("r-%d", i), 1+rng.Intn(8), true)
		case op < 5:
			if err := fe.Close(); err != nil {
				t.Fatal(err)
			}
			s, fe = open()
			checkNamesMatchRows(t, s, step+" reopen")
		default:
			load(step+" load", fmt.Sprintf("e-%d", i), 1+rng.Intn(8), false)
		}
	}
}

// TestDeleteExecutionNamesMatchReopen pins that DeleteExecution forgets
// everything it deletes: what the directory answers afterwards is what a
// reopened store answers.
func TestDeleteExecutionNamesMatchReopen(t *testing.T) {
	dir := t.TempDir()
	fe, err := openEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(statsDoc(4, 3))); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteExecution("se-1"); err != nil {
		t.Fatal(err)
	}
	answers := func(s *Store) (TableStatistics, []string, map[string]core.TypePath) {
		execs, err := s.Executions()
		if err != nil {
			t.Fatal(err)
		}
		types := map[string]core.TypePath{}
		for _, name := range scanDict(t, s, "resource_item") {
			tp, err := s.TypeOfResource(core.ResourceName(name))
			if err != nil {
				t.Fatalf("TypeOfResource(%s): %v", name, err)
			}
			types[name] = tp
		}
		return comparableStatistics(s.TableStatistics()), execs, types
	}
	liveStats, liveExecs, liveTypes := answers(s)
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	fe2, err := openEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	stats, execs, types := answers(s2)
	if !reflect.DeepEqual(liveStats, stats) {
		t.Errorf("statistics after delete:\n%+v\nreopened:\n%+v", liveStats, stats)
	}
	if !reflect.DeepEqual(liveExecs, execs) || !reflect.DeepEqual(liveTypes, types) {
		t.Errorf("after delete: executions %v types %v\nreopened: executions %v types %v",
			liveExecs, liveTypes, execs, types)
	}
}

// TestReadersDoNotWaitBehindCommit pins that no reader of names queues
// behind a whole commit: while one goroutine commits an 8192-result
// batch, each directory-backed read completes at least 100 times inside
// the commit's own [start, end] window.
func TestReadersDoNotWaitBehindCommit(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	one, err := s.ExecutionResultIDs("irs-001")
	if err != nil || len(one) == 0 {
		t.Fatalf("seed result IDs = %v, %v", one, err)
	}
	one = one[:1]

	var doc strings.Builder
	doc.WriteString("Application big\nExecution big-0 big\nResource /big application\n")
	for i := 0; i < 8192; i++ {
		fmt.Fprintf(&doc, "PerfResult big-0 /big(primary) tool \"metric %d\" %d.5 seconds\n", i%64, i)
	}
	b := s.NewBatch()
	for r := ptdf.NewReader(strings.NewReader(doc.String())); ; {
		rec, err := r.Next()
		if err != nil {
			break
		}
		b.Stage(rec)
	}

	reads := []struct {
		name string
		call func() error
	}{
		{"TableStatistics", func() error { s.TableStatistics(); return nil }},
		{"HasResource", func() error { s.HasResource("/irs"); return nil }},
		{"LookupDict", func() error { s.LookupDict("execution", "irs-001"); return nil }},
		{"MaterializeResultsCtx", func() error { _, err := s.MaterializeResultsCtx(context.Background(), one); return err }},
	}
	type span struct{ from, to time.Time }
	spans := make([][]span, len(reads))
	var done atomic.Bool
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; !done.Load(); first = false {
			for i, r := range reads {
				from := time.Now()
				if err := r.call(); err != nil {
					t.Errorf("%s: %v", r.name, err)
					return
				}
				spans[i] = append(spans[i], span{from, time.Now()})
			}
			if first {
				close(started)
			}
		}
	}()
	<-started
	start := time.Now()
	_, err = b.CommitCtx(context.Background())
	end := time.Now()
	done.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		inside := 0
		for _, sp := range spans[i] {
			if sp.from.After(start) && sp.to.Before(end) {
				inside++
			}
		}
		if inside < 100 {
			t.Errorf("%s: %d calls started and finished inside the %v commit, want >= 100",
				r.name, inside, end.Sub(start))
		}
	}
}

// TestNamesConcurrent races everything that touches the directory: two
// loaders (one feeding documents that roll back), a DeleteExecution loop,
// and readers of every directory-backed accessor, holding lock-free views
// across the writers' appends and swaps. Run under -race; afterwards the
// directory must equal the rows.
func TestNamesConcurrent(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(namesDoc(rand.New(rand.NewSource(2)), "keep", 4, false))); err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	loaded := make(chan string, rounds)
	var writers, readers sync.WaitGroup
	writers.Add(3)
	go func() { // good documents
		defer writers.Done()
		defer close(loaded)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < rounds; i++ {
			exec := fmt.Sprintf("g-%d", i)
			if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(namesDoc(rng, exec, 1+rng.Intn(6), false))); err != nil {
				t.Errorf("load %s: %v", exec, err)
				return
			}
			loaded <- exec
		}
	}()
	go func() { // documents that roll back
		defer writers.Done()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < rounds; i++ {
			exec := fmt.Sprintf("b-%d", i)
			if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(namesDoc(rng, exec, 1+rng.Intn(6), true))); err == nil {
				t.Errorf("load %s did not fail", exec)
				return
			}
		}
	}()
	go func() { // delete every other loaded execution
		defer writers.Done()
		i := 0
		for exec := range loaded {
			if i++; i%2 == 0 {
				if err := s.DeleteExecution(exec); err != nil {
					t.Errorf("delete %s: %v", exec, err)
					return
				}
			}
		}
	}()

	var stop atomic.Bool
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			// Answers may name rows of a batch in flight, and a read that
			// races a delete or rollback may fail; neither may panic or race.
			for !stop.Load() {
				s.TableStatistics()
				s.Types().All()
				s.HasResource("/keep/p0")
				s.TypeOfResource("/keep/p0")
				s.LookupDict("metric", "metric k 0")
				s.Applications()
				s.Executions()
				s.Metrics()
				s.Tools()
				s.ResourceByName("/keep")
				s.Descendants("/keep")
				s.ExecutionDetail("keep")
				s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Type: "execution/process"})
				for k := range dictSpecs {
					view := s.Dict(dictSpecs[k].table)
					for id := int64(0); id <= view.MaxID(); id++ {
						view.Name(id)
					}
				}
				execs, _ := s.Executions()
				for _, exec := range execs {
					ids, err := s.ExecutionResultIDs(exec)
					if err != nil {
						continue
					}
					s.ExecutionsOfResults(ids)
					s.MaterializeStreamCtx(context.Background(), ids, MaterializeOptions{ChunkSize: 2}, func(prs []*core.PerformanceResult) error {
						for _, pr := range prs {
							if pr.Execution == "" || pr.Metric == "" {
								t.Errorf("materialized a result without names: %+v", pr)
							}
						}
						return nil
					})
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	checkNamesMatchRows(t, s, "after the writers stopped")
}

// TestNamesStayUniqueUnderConcurrentBatches: no table keeps a name unique
// but the names directory, under the writer lock. Batches committed at
// once, each introducing the same new application, execution, resource
// type, resource, metric, tool and units, end with one row per name.
func TestNamesStayUniqueUnderConcurrentBatches(t *testing.T) {
	s := newStore(t)
	const writers = 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := s.NewBatch()
			b.Stage(ptdf.ApplicationRec{Name: "shared-app"})
			b.Stage(ptdf.ExecutionRec{Name: "shared-exec", App: "shared-app"})
			b.Stage(ptdf.ResourceTypeRec{Type: "widget"})
			b.Stage(ptdf.ResourceRec{Name: "/shared-widget", Type: "widget"})
			b.Stage(ptdf.PerfResultRec{Exec: "shared-exec", Metric: "shared-metric", Tool: "shared-tool", Units: "shared-units",
				Value: 1, Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/shared-widget"}, Type: core.FocusPrimary}}})
			_, err := b.CommitCtx(context.Background())
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, name := range [numDicts]string{dictApplication: "shared-app", dictExecution: "shared-exec", dictMetric: "shared-metric",
		dictTool: "shared-tool", dictUnits: "shared-units", dictType: "widget", dictResource: "/shared-widget"} {
		n := 0
		for _, have := range scanDict(t, s, dictSpecs[k].table) {
			if have == name {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s holds %d rows named %q, want 1", dictSpecs[k].table, n, name)
		}
	}
	if got := s.Stats().Results; got != writers {
		t.Errorf("%d results, want one a batch: %d", got, writers)
	}
	if _, err := Open(s.Engine()); err != nil {
		t.Fatalf("reopening the names directory: %v", err)
	}
}

// TestDuplicateNameFailsOpen: name uniqueness has one owner, the names
// directory, and no index behind it — so a second row under a name in any
// of its seven tables, which only a writer that went round the store can
// make, fails the next open of the directory, naming both rows.
func TestDuplicateNameFailsOpen(t *testing.T) {
	for k := range dictSpecs {
		table := dictSpecs[k].table
		t.Run(table, func(t *testing.T) {
			dir := t.TempDir()
			fe, err := reldb.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(fe)
			if err != nil {
				t.Fatal(err)
			}
			seedSegmentStudy(t, s)
			addSegResult(t, s, 1)
			tab, _ := fe.Table(table)
			var first int64
			var row reldb.Row
			tab.Scan(func(id int64, r reldb.Row) bool { first, row = id, r; return false })
			row[0] = reldb.Null()
			second, err := fe.Insert(table, row)
			if err != nil {
				t.Fatal(err)
			}
			if err := fe.Close(); err != nil {
				t.Fatal(err)
			}
			if fe, err = reldb.OpenFile(dir); err != nil {
				t.Fatal(err)
			}
			defer fe.Close()
			_, err = Open(fe)
			want := fmt.Sprintf("%s rows %d and %d share the name %q", table, first, second, row[1].Text())
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open over a duplicated name = %v, want an error saying %q", err, want)
			}
		})
	}
}
