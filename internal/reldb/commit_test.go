package reldb_test

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// docShape is the per-execution cross product of the benchmark's
// documents: every process × function × metric has one result.
type docShape struct{ procs, funcs, metrics int }

var (
	docFull  = docShape{64, 8, 8} // doc_full: 4096 results
	docSmall = docShape{8, 4, 8}  // doc_small: 256 results
)

type docWriter struct{ strings.Builder }

func (w *docWriter) rec(r ptdf.Record) {
	w.WriteString(ptdf.FormatRecord(r))
	w.WriteByte('\n')
}

// sharedDoc declares what every execution document refers to: the
// application, the machine's processors and the build's functions.
func sharedDoc() string {
	var w docWriter
	w.rec(ptdf.ApplicationRec{Name: "app"})
	for p := 0; p < docFull.procs; p++ {
		w.rec(ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/G/M/pt/n%d/c%d", p/8, p%8)), Type: "grid/machine/partition/node/processor"})
	}
	for f := 0; f < docFull.funcs; f++ {
		w.rec(ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/bld/m/f%d", f)), Type: "build/module/function"})
	}
	return w.String()
}

// execDoc renders one execution the way the benchmark's corpus does: its
// declaration, its execution resource with four attributes, its
// processes, and the cross product of results, each in a context of a
// process, a function and a processor.
func execDoc(exec string, s docShape) string {
	var w docWriter
	w.rec(ptdf.ExecutionRec{Name: exec, App: "app"})
	root := core.ResourceName("/" + exec)
	w.rec(ptdf.ResourceRec{Name: root, Type: "execution", Exec: exec})
	for _, attr := range []string{"compiler", "nprocs", "machine", "inputdeck"} {
		w.rec(ptdf.ResourceAttributeRec{Resource: root, Attr: attr, Value: "v", AttrType: "string"})
	}
	proc := func(p int) core.ResourceName { return core.ResourceName(fmt.Sprintf("/%s/p%d", exec, p)) }
	for p := 0; p < s.procs; p++ {
		w.rec(ptdf.ResourceRec{Name: proc(p), Type: "execution/process", Exec: exec})
	}
	for p := 0; p < s.procs; p++ {
		for f := 0; f < s.funcs; f++ {
			sets := []ptdf.ResourceSet{{Type: core.FocusPrimary, Names: []core.ResourceName{
				proc(p), core.ResourceName(fmt.Sprintf("/bld/m/f%d", f)), core.ResourceName(fmt.Sprintf("/G/M/pt/n%d/c%d", p/8, p%8)),
			}}}
			for m := 0; m < s.metrics; m++ {
				w.rec(ptdf.PerfResultRec{Exec: exec, Sets: sets, Tool: "tool", Metric: fmt.Sprintf("metric %d", m), Units: "seconds", Value: float64(p*s.funcs + f)})
			}
		}
	}
	return w.String()
}

// TestSegmentCommitTakesEngineLockOnce: a transaction's inserts take the
// engine write lock not at all and its Commit takes it once, however many
// rows of however many tables it installs — in memory and in a directory,
// for a raw transaction and for the commit of a whole datastore.Batch
// holding a doc_full or a doc_small. The flush threshold is above every
// batch, so no commit seals a tail and the compactor idles.
func TestSegmentCommitTakesEngineLockOnce(t *testing.T) {
	for _, kind := range []string{reldb.KindMem, reldb.KindSegment} {
		e, err := reldb.Open(kind, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		eng := e.DB()
		eng.SetSegmentFlushRows(1 << 40)
		s, err := datastore.Open(eng)
		if err == nil {
			_, err = s.LoadPTdfCtx(context.Background(), strings.NewReader(sharedDoc()))
		}
		if err != nil {
			t.Fatal(err)
		}
		once := func(what string, commit func() error) {
			t.Helper()
			before := reldb.WriteLocks(eng)
			if err := commit(); err != nil {
				t.Fatalf("%s: %s: %v", kind, what, err)
			}
			if n := reldb.WriteLocks(eng) - before; n != 1 {
				t.Fatalf("%s: %s took the engine write lock %d times, want once", kind, what, n)
			}
		}

		// A raw transaction: 600 foci, each linked to a resource.
		resources, _ := eng.Table("resource_item")
		var resource int64
		resources.Scan(func(id int64, _ reldb.Row) bool { resource = id; return false })
		before := reldb.WriteLocks(eng)
		tx := eng.Begin()
		for i := 0; i < 600; i++ {
			fid, err := tx.Insert("focus", reldb.Row{reldb.Null(), reldb.Str("primary"), reldb.Str(fmt.Sprintf("raw:%d", i))})
			if err == nil {
				_, err = tx.Insert("focus_has_resource", reldb.Row{reldb.Int(fid), reldb.Int(resource)})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n := reldb.WriteLocks(eng) - before; n != 0 {
			t.Fatalf("%s: 1200 inserts took the engine write lock %d times, want none", kind, n)
		}
		once("the raw transaction's commit", tx.Commit)

		for i, shape := range []docShape{docFull, docSmall} {
			doc := execDoc(fmt.Sprintf("e%d", i), shape)
			once(fmt.Sprintf("the load of a %d-result document", shape.procs*shape.funcs*shape.metrics), func() error {
				_, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(doc))
				return err
			})
		}
		if st := s.Stats(); st.Results != int64(docFull.procs*docFull.funcs*docFull.metrics+docSmall.procs*docSmall.funcs*docSmall.metrics) {
			t.Fatalf("%s: %d results after the loads", kind, st.Results)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeleteExecutionIsOneCommit: on a checkpointed directory store, with
// every hot row in a segment, DeleteExecution takes the engine write lock
// once, leaves every hot table in its segments — replaced, none emptied
// into a row store or a tail — and a reader counting the execution's
// results, by index and by block scan, while it runs sees all of them or
// none. A reopen holds what the delete left.
func TestDeleteExecutionIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	eng, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { eng.Close() }()
	s, err := datastore.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{sharedDoc(), execDoc("e0", docFull), execDoc("e1", docFull), execDoc("e2", docSmall)} {
		if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reldb.StopCompactor(eng) // its passes take the write lock too
	exec, ok := s.LookupDict("execution", "e1")
	if !ok {
		t.Fatal("no execution e1")
	}
	results, _ := eng.Table("performance_result")
	const all = 4096
	count := func() (byIndex, byBlocks int) {
		if err := results.IndexScanInt("performance_result_exec", []reldb.Value{reldb.Int(exec)}, 0, func(int64, int64) bool {
			byIndex++
			return true
		}); err != nil {
			t.Error(err)
		}
		scan, err := results.Blocks(math.MinInt64, math.MaxInt64)
		if err == nil {
			err = scan.Each(func(b *reldb.ColumnBlock) error {
				for _, e := range reldb.Values(b.Ints(1)) {
					if e == exec {
						byBlocks++
					}
				}
				return nil
			})
		}
		if err != nil {
			t.Error(err)
		}
		return byIndex, byBlocks
	}
	if i, b := count(); i != all || b != all {
		t.Fatalf("before the delete: %d results by index, %d by block scan, want %d", i, b, all)
	}
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if i, b := count(); (i != 0 && i != all) || (b != 0 && b != all) {
				t.Errorf("a reader saw %d of e1's %d results by index, %d by block scan", i, all, b)
				return
			}
		}
	}()
	before := reldb.WriteLocks(eng)
	err = s.DeleteExecution("e1")
	locks := reldb.WriteLocks(eng) - before
	close(done)
	reader.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if locks != 1 {
		t.Fatalf("DeleteExecution took the engine write lock %d times, want once", locks)
	}
	if i, b := count(); i != 0 || b != 0 {
		t.Fatalf("after the delete: %d results by index, %d by block scan", i, b)
	}
	for _, st := range eng.SegmentStats().Tables {
		if st.Segments == 0 || st.PendingRows != 0 {
			t.Errorf("%s after the delete = %+v, want every row in segments", st.Table, st)
		}
	}
	want := s.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err = reldb.OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	if s, err = datastore.Open(eng); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Results != want.Results || got.Results != int64(all+docSmall.procs*docSmall.funcs*docSmall.metrics) {
		t.Fatalf("reopened: %d results, want %d", got.Results, want.Results)
	}
}

// TestIRSUnderMachinesStaysColumnar loads the machine catalog and then
// IRS executions, whose resources land under catalog resources already
// flushed: resource_has_descendant gets keys below its flushed ones. The
// table stays blocks — no row-set row, segments written as its tail
// fills — its runs overlap, and its point and prefix reads answer as those
// of a twin store whose rows never leave the tail.
func TestIRSUnderMachinesStaysColumnar(t *testing.T) {
	open := func(flush int64) *datastore.Store {
		eng, err := reldb.OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		eng.SetSegmentFlushRows(flush)
		s, err := datastore.Open(eng)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, twin := open(64), open(1<<40)
	var docs [][]ptdf.Record
	for _, m := range gen.Catalog() {
		docs = append(docs, m.ToPTdf(4))
	}
	for k := 0; k < 3; k++ {
		spec := gen.ExecSpec{Kind: gen.KindIRS, Execution: fmt.Sprintf("irs-%d", k), App: "irs", Machine: "MCR", NProcs: 16, Seed: int64(k + 1)}
		dir := t.TempDir()
		if _, err := gen.WriteExecution(dir, spec); err != nil {
			t.Fatal(err)
		}
		recs, err := gen.ConvertExecution(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, recs)
	}
	for _, st := range []*datastore.Store{s, twin} {
		for _, doc := range docs {
			b := st.NewBatch()
			for _, rec := range doc {
				b.Stage(rec)
			}
			if _, err := b.CommitCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := s.Engine()
	if err := eng.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	var status reldb.SegmentTableStatus
	for _, st := range eng.SegmentStats().Tables {
		if st.Table == "resource_has_descendant" {
			status = st
		}
	}
	got, _ := eng.Table("resource_has_descendant")
	want, _ := twin.Engine().Table("resource_has_descendant")
	scan, err := got.Blocks(math.MinInt64, math.MaxInt64)
	if err != nil || status.Segments < 2 || len(scan.Segments) == status.Segments {
		t.Fatalf("resource_has_descendant = %+v, %d of its segments handed out whole (err %v); want overlapping segments",
			status, len(scan.Segments), err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d links, the twin %d", got.Len(), want.Len())
	}
	visits := func(tab *reldb.Table, prefix []reldb.Value) string {
		var b strings.Builder
		if err := tab.PKScan(prefix, func(id int64, row reldb.Row) bool {
			fmt.Fprintf(&b, "%d %s;", id, row)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if visits(got, nil) != visits(want, nil) {
		t.Fatal("the full key-ordered scans differ")
	}
	want.Scan(func(id int64, row reldb.Row) bool {
		if g, gid, ok := got.GetByPK(row...); !ok || gid != id || g.String() != row.String() {
			t.Errorf("GetByPK(%s) = %v, %d, %v; want row %d", row, g, gid, ok, id)
			return false
		}
		return true
	})
	for anc := int64(0); anc < 200; anc++ {
		prefix := []reldb.Value{reldb.Int(anc)}
		if g, w := visits(got, prefix), visits(want, prefix); g != w {
			t.Fatalf("PKScan(%d) = %s, the twin's %s", anc, g, w)
		}
	}
}

// TestParentStoreNameIndexesBecomePlain opens the directory the parent
// of the names directory's uniqueness wrote (the datastore's
// testdata/parent_store: seven unique name indexes and a focus_signature
// index): the open replaces each name index with a plain one by exactly
// one logged DROP INDEX and one CREATE INDEX, drops focus_signature and
// logs nothing else, and a second open logs nothing at all.
func TestParentStoreNameIndexesBecomePlain(t *testing.T) {
	dir := t.TempDir()
	reldb.CopyTree(t, filepath.Join("..", "datastore", "testdata", "parent_store"), dir)
	wal := filepath.Join(dir, "perftrack.wal")
	logged := func(eng *reldb.DB) []string {
		t.Helper()
		eng.Stats() // flushes perftrack.wal
		ops, err := reldb.LogOps(wal)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	eng, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := len(logged(eng))
	if _, err := datastore.Open(eng); err != nil {
		t.Fatal(err)
	}
	want := []string{"drop index focus.focus_signature"}
	for table, index := range map[string]string{"application": "application_name", "execution": "execution_name",
		"focus_framework": "focus_framework_name", "resource_item": "resource_item_name", "metric": "metric_name",
		"performance_tool": "performance_tool_name", "units": "units_name"} {
		want = append(want, "drop index "+table+"."+index, "create index "+table+"."+index)
		tab, _ := eng.Table(table)
		for _, ix := range tab.Schema().Indexes {
			if ix.Name == index && ix.Unique {
				t.Errorf("%s is still unique", index)
			}
		}
	}
	got := logged(eng)[before:]
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the open logged %v, want %v", got, want)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err = reldb.OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before = len(logged(eng))
	if _, err := datastore.Open(eng); err != nil {
		t.Fatal(err)
	}
	if got := logged(eng)[before:]; len(got) != 0 {
		t.Fatalf("a second open logged %v", got)
	}
}
