package datastore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/reldb"
)

// Tests of the focus table as a hot table: the directory alone owns
// signature uniqueness, an old store gives up its focus_signature index
// and its focus rows move to columns, and a delete keeps them there.

// tableRows is every row of every schema table, by table and row ID.
func tableRows(s *Store) map[string]map[int64]string {
	out := make(map[string]map[int64]string)
	for _, name := range tableNames {
		tab, _ := s.eng.Table(name)
		rows := make(map[int64]string, tab.Len())
		tab.Scan(func(id int64, row reldb.Row) bool {
			rows[id] = row.String()
			return true
		})
		out[name] = rows
	}
	return out
}

// sameAsTwin fails unless the store holds the twin's rows, row ID for row
// ID, and resolves every focus signature as the twin does.
func sameAsTwin(t *testing.T, label string, s, twin *Store) {
	t.Helper()
	got, want := tableRows(s), tableRows(twin)
	for _, name := range tableNames {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Fatalf("%s: %s holds %d rows, the twin %d, or they differ:\n got  %v\n want %v",
				label, name, len(got[name]), len(want[name]), got[name], want[name])
		}
	}
	if !reflect.DeepEqual(s.names.focusIDs, twin.names.focusIDs) {
		t.Fatalf("%s: %d focus signatures resolve, the twin's %d, or they differ", label, len(s.names.focusIDs), len(twin.names.focusIDs))
	}
}

func hotStatus(t *testing.T, fe *reldb.DB, table string) reldb.SegmentTableStatus {
	t.Helper()
	for _, st := range fe.SegmentStats().Tables {
		if st.Table == table {
			return st
		}
	}
	t.Fatalf("%s is not a hot table", table)
	return reldb.SegmentTableStatus{}
}

// TestLegacyStoreUpgradesFocus: the directory the parent of the schema
// change wrote (testdata/parent_store: focus rows in the snapshot, under a
// unique focus_signature index) opens, its focus rows written to a
// segment by the open, loses the index to one logged DROP INDEX, and at
// the next seal the new focus rows join the old in segments and are
// nowhere else. Every row and every signature equals
// those of a twin given the same records; a copy taken between the
// drop and the seal recovers, as does one taken after it; and a reopened
// store, up to date, logs nothing.
func TestLegacyStoreUpgradesFocus(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parent_store"))
	raw, err := os.ReadFile(filepath.Join("testdata", "parent_store.ptdf"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	twin := newTwinOf(t, doc)
	open := func(dir string) (*Store, *reldb.DB) {
		t.Helper()
		fe, err := reldb.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		fe.SetSegmentFlushRows(16)
		s, err := Open(fe)
		if err != nil {
			t.Fatal(err)
		}
		if tab, _ := fe.Table("focus"); tab.HasIndex("focus_signature") {
			t.Fatal("the store keeps focus_signature")
		}
		return s, fe
	}
	s, fe := open(dir)
	sameAsTwin(t, "opened", s, twin)
	if st := hotStatus(t, fe, "focus"); st.Segments == 0 || st.PendingRows != 0 {
		t.Fatalf("focus after the open = %+v, want the snapshot's rows in a segment", st)
	}
	fe.Stats() // the DROP INDEX reaches perftrack.wal
	dropped := copyDir(t, dir)

	for _, st := range []*Store{s, twin} {
		seedSegmentStudy(t, st)
		for i := 0; i < 40; i++ {
			addSegResult(t, st, i)
		}
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "focus"); st.Segments == 0 || st.PendingRows != 0 || st.Rows != int64(len(twin.names.focusIDs)) {
		t.Fatalf("focus after a load and a seal = %+v, want all %d rows in segments", st, len(twin.names.focusIDs))
	}
	sameAsTwin(t, "loaded and sealed", s, twin)
	fe.Stats()
	sealed := copyDir(t, dir)

	// Neither copy was checkpointed: perftrack.wal, rewritten by the open,
	// has the index, then the DROP INDEX.
	early, _ := open(dropped)
	sameAsTwin(t, "copy taken between the drop and the seal", early, newTwinOf(t, doc))
	late, lateFE := open(sealed)
	sameAsTwin(t, "copy taken after the seal", late, twin)
	if err := lateFE.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, lateFE, "focus"); st.Segments == 0 || st.PendingRows != 0 {
		t.Fatalf("focus after the copy's checkpoint = %+v, want it in segments", st)
	}
	if err := lateFE.Close(); err != nil {
		t.Fatal(err)
	}
	fe2, err := reldb.OpenFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	walBefore := fe2.Stats().WALBytes
	again, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if walAfter := fe2.Stats().WALBytes; walAfter != walBefore {
		t.Fatalf("opening the upgraded store logged %d bytes", walAfter-walBefore)
	}
	sameAsTwin(t, "reopened after a checkpoint", again, twin)
	if st := hotStatus(t, fe2, "focus"); st.Segments == 0 || st.PendingRows != 0 {
		t.Fatalf("focus after the reopen = %+v, want it in segments", st)
	}
}

// newTwin returns an empty store whose hot tables never seal — the flush
// threshold is above any corpus here — so its rows stay in the tails: a
// residency unlike the segments the store under test is read from, giving
// the same answers.
func newTwin(t *testing.T) *Store {
	t.Helper()
	s := newStore(t)
	s.Engine().SetSegmentFlushRows(1 << 40)
	return s
}

// newTwinOf returns a twin loaded with one document.
func newTwinOf(t *testing.T, doc string) *Store {
	t.Helper()
	s := newTwin(t)
	if _, err := s.LoadPTdf(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDuplicateFocusSignatureFailsOpen: signature uniqueness has one
// owner, the names directory, and no index behind it — so a second focus
// row under a signature, which only a writer that went round the store can
// make, is refused where the directory is built, by both IDs.
func TestDuplicateFocusSignatureFailsOpen(t *testing.T) {
	eng := reldb.NewMem()
	s, err := Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	seedSegmentStudy(t, s)
	addSegResult(t, s, 1)
	tab, _ := eng.Table("focus")
	var first int64
	var row reldb.Row
	tab.Scan(func(id int64, r reldb.Row) bool { first, row = id, r; return false })
	row[0] = reldb.Null()
	second, err := eng.Insert("focus", row)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(eng)
	want := fmt.Sprintf("foci %d and %d share the signature", first, second)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over a duplicated signature = %v, want an error saying %q", err, want)
	}
}

// TestSegmentDeleteExecutionOverFlushedFoci: DeleteExecution on a durable
// store whose foci and closure links are all in segments replaces the
// segments it deletes from, as it does the result tables', and leaves what
// the twin is left with — at once, after a reopen, and after the next load.
func TestSegmentDeleteExecutionOverFlushedFoci(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fe.Close() }()
	fe.SetSegmentFlushRows(16)
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	twin := newTwin(t)
	const procs, funcs, metrics = 4, 4, 2
	load := func(exec string) {
		t.Helper()
		for _, st := range []*Store{s, twin} {
			if _, err := stage(st, fullShapedDoc(exec, procs, funcs, metrics)).Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range []*Store{s, twin} {
		if _, err := stage(st, shapedShared(procs, funcs)).Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 4; k++ {
		load(fmt.Sprintf("e%d", k))
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"focus", "resource_has_ancestor", "resource_has_descendant"} {
		if st := hotStatus(t, fe, name); st.Segments == 0 || st.PendingRows != 0 {
			t.Fatalf("%s before the delete = %+v, want it flushed", name, st)
		}
	}
	for _, st := range []*Store{s, twin} {
		if err := st.DeleteExecution("e1"); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"focus", "resource_has_ancestor", "resource_has_descendant"} {
		if st := hotStatus(t, fe, name); st.Segments == 0 || st.PendingRows != 0 {
			t.Fatalf("%s after the delete = %+v, want its rows still in segments", name, st)
		}
	}
	sameAsTwin(t, "deleted", s, twin)

	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	if fe, err = reldb.OpenFile(dir); err != nil {
		t.Fatal(err)
	}
	fe.SetSegmentFlushRows(16)
	if s, err = Open(fe); err != nil {
		t.Fatal(err)
	}
	sameAsTwin(t, "reopened", s, twin)
	// Recovery restarts row IDs after the highest surviving row, the twin
	// after the highest ever assigned; the delete took neither table's last
	// row.
	load("e4")
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "focus"); st.Segments == 0 || st.PendingRows != 0 {
		t.Fatalf("focus after the next load = %+v, want it in segments", st)
	}
	sameAsTwin(t, "loaded again", s, twin)
}
