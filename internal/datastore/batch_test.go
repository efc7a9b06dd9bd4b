package datastore

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// resultFor builds a well-formed scalar result record against a resource.
func resultFor(exec, res string) ptdf.PerfResultRec {
	return ptdf.PerfResultRec{
		Exec: exec, Metric: "m", Value: 1, Units: "u", Tool: "t",
		Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{core.ResourceName(res)}, Type: core.FocusPrimary}},
	}
}

func TestBatchStageCommit(t *testing.T) {
	s := newStore(t)
	b := s.NewBatch()
	b.Stage(ptdf.ApplicationRec{Name: "a"})
	b.Stage(ptdf.ExecutionRec{Name: "e1", App: "a"})
	b.Stage(ptdf.ResourceRec{Name: "/a", Type: "application"})

	// Staging must not touch the store.
	if got := s.Stats(); got.Applications != 0 || got.Executions != 0 {
		t.Errorf("staging leaked into the store: %+v", got)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}

	genBefore := s.Generation()
	stats, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.Apps != 1 || stats.Executions != 1 || stats.Resources != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if got := s.Stats(); got.Applications != 1 || got.Executions != 1 {
		t.Errorf("store after commit: %+v", got)
	}
	// One batch = exactly one generation bump, however many records.
	if got := s.Generation(); got != genBefore+1 {
		t.Errorf("generation bumped %d times, want 1", got-genBefore)
	}
}

func TestBatchCommitTwice(t *testing.T) {
	s := newStore(t)
	b := s.NewBatch()
	b.Stage(ptdf.ApplicationRec{Name: "a"})
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); !errors.Is(err, ErrBatchDone) {
		t.Errorf("second commit: err = %v, want ErrBatchDone", err)
	}
}

func TestBatchEmptyCommitIsNoOp(t *testing.T) {
	s := newStore(t)
	gen := s.Generation()
	if _, err := s.NewBatch().Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen {
		t.Error("empty commit bumped the generation")
	}
}

func TestBatchRollbackDiscards(t *testing.T) {
	s := newStore(t)
	b := s.NewBatch()
	b.Stage(ptdf.ApplicationRec{Name: "a"})
	b.Rollback()
	if _, err := b.Commit(); !errors.Is(err, ErrBatchDone) {
		t.Errorf("commit after rollback: err = %v, want ErrBatchDone", err)
	}
	if got := s.Stats(); got.Applications != 0 {
		t.Errorf("rollback leaked into the store: %+v", got)
	}
}

func TestBatchCommitFailureRollsBackWholeBatch(t *testing.T) {
	s := newStore(t)
	before := s.Stats()
	b := s.NewBatch()
	b.Stage(ptdf.ApplicationRec{Name: "a"})
	b.Stage(ptdf.ExecutionRec{Name: "e1", App: "a"})
	b.Stage(resultFor("nope", "/a"))
	_, err := b.Commit()
	if err == nil {
		t.Fatal("bad batch committed")
	}
	if !strings.Contains(err.Error(), "record 3") {
		t.Errorf("err = %v, want record index", err)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if after := s.Stats(); before != after {
		t.Errorf("failed batch left data: before %+v after %+v", before, after)
	}
}

// docFor builds a small self-contained PTdf document for one execution.
func docFor(i int) string {
	return fmt.Sprintf(`Application app%d
Execution exec-%d app%d
Resource /app%d application
Resource /exec-%d execution exec-%d
PerfResult exec-%d /app%d(primary) tool "wall time" %d.5 seconds
`, i, i, i, i, i, i, i, i, i)
}

func bulkSources(n int, bad map[int]bool) []BulkSource {
	docs := make([]BulkSource, n)
	for i := 0; i < n; i++ {
		i := i
		doc := docFor(i)
		if bad[i] {
			doc = strings.Replace(doc, "(primary)", "", 1) // drop focus: parse error
		}
		docs[i] = BulkSource{
			Name: fmt.Sprintf("doc-%d", i),
			Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(doc)), nil },
		}
	}
	return docs
}

func TestBulkLoadParallelOrderAndTotals(t *testing.T) {
	s := newStore(t)
	const n = 16
	results := s.BulkLoad(bulkSources(n, nil), 4)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, dr := range results {
		if dr.Name != fmt.Sprintf("doc-%d", i) {
			t.Errorf("result %d out of order: %q", i, dr.Name)
		}
		if dr.Err != nil {
			t.Errorf("doc %d failed: %v", i, dr.Err)
		}
	}
	st := s.Stats()
	if st.Executions != n || st.Results != n || st.Applications != n {
		t.Errorf("store after bulk load: %+v", st)
	}
}

func TestBulkLoadFailedDocIsolated(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	results := s.BulkLoad(bulkSources(n, map[int]bool{3: true}), 4)
	for i, dr := range results {
		if i == 3 {
			if dr.Err == nil {
				t.Error("bad doc loaded without error")
			} else {
				if !strings.Contains(dr.Err.Error(), "doc-3") {
					t.Errorf("doc 3 error does not name the document: %v", dr.Err)
				}
				if !errors.Is(dr.Err, ErrBadSpec) {
					t.Errorf("doc 3 err = %v, want ErrBadSpec", dr.Err)
				}
			}
			continue
		}
		if dr.Err != nil {
			t.Errorf("doc %d failed alongside the bad one: %v", i, dr.Err)
		}
	}
	st := s.Stats()
	if st.Executions != n-1 || st.Results != n-1 {
		t.Errorf("store after bulk load with one bad doc: %+v", st)
	}
	if s.HasResource("/exec-3") || s.HasResource("/app3") {
		t.Error("failed document's resources are visible")
	}

	// The rollback must be durable: reopening from disk shows the same
	// n-1 committed documents and nothing of the failed one.
	before := s.Stats()
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
	if after := s2.Stats(); before != after {
		t.Errorf("reopened store diverges: before %+v after %+v", before, after)
	}
	if s2.HasResource("/exec-3") {
		t.Error("failed document resurrected by WAL replay")
	}
}

func TestBulkLoadOpenErrorFailsOneDoc(t *testing.T) {
	s := newStore(t)
	docs := bulkSources(3, nil)
	docs[1].Open = func() (io.ReadCloser, error) { return nil, fmt.Errorf("no such file") }
	results := s.BulkLoad(docs, 2)
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "no such file") {
		t.Errorf("doc 1 err = %v", results[1].Err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("open failure spread: %v / %v", results[0].Err, results[2].Err)
	}
}

func TestBulkLoadStreamSourceError(t *testing.T) {
	s := newStore(t)
	boom := fmt.Errorf("source exploded")
	i := 0
	next := func() (string, io.ReadCloser, error) {
		if i >= 2 {
			return "", nil, boom
		}
		doc := docFor(i)
		i++
		return fmt.Sprintf("doc-%d", i-1), io.NopCloser(strings.NewReader(doc)), nil
	}
	var emitted int
	err := s.BulkLoadStream(next, 2, func(dr DocResult) {
		emitted++
		if dr.Err != nil {
			t.Errorf("%s failed: %v", dr.Name, dr.Err)
		}
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want source error", err)
	}
	if emitted != 2 {
		t.Errorf("emitted %d docs before the source error, want 2", emitted)
	}
}

// TestSentinelErrors pins the typed error surface: missing references
// are ErrNotFound, identity conflicts ErrExists, malformed input
// ErrBadSpec — the classes the server maps to 404/409/400.
func TestSentinelErrors(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdf(strings.NewReader("Application a\nExecution e1 a\n")); err != nil {
		t.Fatal(err)
	}

	// Unknown execution reference.
	err := s.LoadRecord(resultFor("ghost", "/nowhere"))
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown execution: err = %v, want ErrNotFound", err)
	}

	// Redefining an execution under a different application.
	if err := s.LoadRecord(ptdf.ApplicationRec{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	err = s.LoadRecord(ptdf.ExecutionRec{Name: "e1", App: "b"})
	if !errors.Is(err, ErrExists) {
		t.Errorf("execution conflict: err = %v, want ErrExists", err)
	}

	// Redefining a resource with a different type.
	if err := s.LoadRecord(ptdf.ResourceRec{Name: "/a", Type: "application"}); err != nil {
		t.Fatal(err)
	}
	err = s.LoadRecord(ptdf.ResourceRec{Name: "/a", Type: "execution"})
	if !errors.Is(err, ErrExists) {
		t.Errorf("resource type conflict: err = %v, want ErrExists", err)
	}

	// Syntax error in a document.
	if _, err := s.LoadPTdf(strings.NewReader("Nonsense\n")); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad syntax: err = %v, want ErrBadSpec", err)
	}

	// Read-path misses.
	if _, err := s.ResourceByName("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing resource: err = %v, want ErrNotFound", err)
	}
	if _, err := s.ExecutionDetail("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing execution: err = %v, want ErrNotFound", err)
	}
}

// openKind opens a store on a fresh engine of the given kind.
func openKind(t *testing.T, kind string) *Store {
	t.Helper()
	eng, err := reldb.Open(kind, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s, err := Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTxBatchAppearsWhole: while a loader commits documents shaped like
// doc_small through Batch — every third one refused at its last record
// and rolled back — readers polling the row counts of execution,
// resource_item, resource_attribute and performance_result only ever see
// the base count plus whole committed documents, and never a rolled-back
// document's rows. Every table's rows are private to the batch's
// transaction until it commits, in memory and in a directory.
func TestTxBatchAppearsWhole(t *testing.T) {
	const procs, funcs, metrics, docs = 8, 4, 8, 24
	per := map[string]int{ // rows a document adds
		"execution":          1,
		"resource_item":      1 + procs, // the execution resource and its processes
		"resource_attribute": 1,
		"performance_result": procs * funcs * metrics,
	}
	for _, kind := range []string{reldb.KindMem, reldb.KindSegment} {
		t.Run(kind, func(t *testing.T) {
			s := openKind(t, kind)
			if _, err := stage(s, shapedShared(procs, funcs)).Commit(); err != nil {
				t.Fatal(err)
			}
			base, tables := map[string]int{}, map[string]*reldb.Table{}
			for name := range per {
				tables[name], _ = s.Engine().Table(name)
				base[name] = tables[name].Len()
			}
			var committed, visible atomic.Int64 // documents committed; documents whose rows may be visible
			done := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						for name, n := range per {
							lo := committed.Load()
							rows := tables[name].Len() - base[name]
							hi := visible.Load()
							if whole := int64(rows / n); rows%n != 0 || whole < lo || whole > hi {
								t.Errorf("%s holds %d rows past the base: not %d-row documents numbering %d to %d", name, rows, n, lo, hi)
								return
							}
						}
					}
				}()
			}
			for k := 0; k < docs; k++ {
				exec := fmt.Sprintf("s%d", k)
				recs := fullShapedDoc(exec, procs, funcs, metrics)
				attr := ptdf.ResourceAttributeRec{Resource: core.ResourceName("/" + exec), Attr: "origin", Value: "tx", AttrType: "string"}
				recs = append(recs[:1+procs:1+procs], append([]ptdf.Record{attr}, recs[1+procs:]...)...)
				bad := k%3 == 2
				if bad {
					recs = append(recs, resultFor(exec, "/nobody/has/this"))
				} else {
					visible.Add(1)
				}
				_, err := stage(s, recs).Commit()
				if bad != (err != nil) {
					t.Fatalf("document %d (refused at its last record: %v): %v", k, bad, err)
				}
				if !bad {
					committed.Add(1)
				}
			}
			close(done)
			readers.Wait()
			for name, n := range per {
				if got, want := tables[name].Len()-base[name], n*int(committed.Load()); got != want {
					t.Errorf("%s holds %d rows past the base after %d documents, want %d", name, got, committed.Load(), want)
				}
			}
		})
	}
}

// TestAddPerfResultFailureLeavesNothing: each public write is a
// transaction too. An AddPerfResult whose context names an unknown
// resource is refused and leaves neither its result row nor the metric it
// interned — in the rows or in the names directory — in memory and in a
// directory, and bumps the generation once.
func TestAddPerfResultFailureLeavesNothing(t *testing.T) {
	for _, kind := range []string{reldb.KindMem, reldb.KindSegment} {
		s := openKind(t, kind)
		if _, err := s.AddExecution("e1", "app"); err != nil {
			t.Fatal(err)
		}
		before, gen := s.Stats(), s.Generation()
		_, err := s.AddPerfResult(&core.PerformanceResult{
			Execution: "e1", Metric: "fresh metric", Value: 1,
			Contexts: []core.Context{core.NewContext("/ghost")},
		})
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: AddPerfResult = %v, want ErrNotFound", kind, err)
		}
		if after := s.Stats(); after.Results != before.Results || after.Metrics != before.Metrics || after.Foci != before.Foci {
			t.Fatalf("%s: the refused result left rows behind:\nbefore %+v\n after %+v", kind, before, after)
		}
		if _, ok := s.LookupDict("metric", "fresh metric"); ok {
			t.Fatalf("%s: the names directory kept the refused result's metric", kind)
		}
		if s.Generation() != gen+1 {
			t.Fatalf("%s: generation %d after one refused write, want %d", kind, s.Generation(), gen+1)
		}
	}
}
