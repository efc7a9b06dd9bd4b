package reldb_test

import (
	"fmt"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
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
			_, err = s.LoadPTdf(strings.NewReader(sharedDoc()))
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
				_, err := s.LoadPTdf(strings.NewReader(doc))
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
