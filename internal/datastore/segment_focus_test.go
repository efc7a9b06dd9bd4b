package datastore

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/reldb"
)

// Tests of the focus table as a hot table: a focus is its type and its
// focus_has_resource rows, the directory alone owns focus uniqueness,
// and a delete keeps the rows in columns.

// tableRows is every row of every schema table, by table and row ID.
func tableRows(s *Store) map[string]map[int64]string {
	out := make(map[string]map[int64]string)
	for _, name := range tableNames {
		tab, _ := s.eng.Table(name)
		rows := make(map[int64]string, tab.Len())
		eachRow(tab, func(id int64, row reldb.Row) bool {
			rows[id] = row.String()
			return true
		})
		out[name] = rows
	}
	return out
}

// sameAsTwin fails unless the store holds the twin's rows, row ID for row
// ID, and resolves every focus key as the twin does.
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
		t.Fatalf("%s: %d focus keys resolve, the twin's %d, or they differ", label, len(s.names.focusIDs), len(twin.names.focusIDs))
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

// TestDuplicateFocusFailsOpen: focus uniqueness has one owner, the names
// directory, and no index behind it — so a second focus row with copies
// of the first's focus_has_resource rows, which only a writer that went
// round the store can make, is refused where the directory is built, by
// both IDs.
func TestDuplicateFocusFailsOpen(t *testing.T) {
	eng := reldb.NewMem()
	s, err := Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	seedSegmentStudy(t, s)
	addSegResults(t, s, 1, 2)
	tab, _ := eng.Table("focus")
	var first int64
	var row reldb.Row
	eachRow(tab, func(id int64, r reldb.Row) bool { first, row = id, r; return false })
	row[0] = reldb.Null()
	second, err := eng.Insert("focus", row)
	if err != nil {
		t.Fatal(err)
	}
	links, _ := eng.Table("focus_has_resource")
	var members []int64
	eachRow(links, func(_ int64, r reldb.Row) bool {
		if r[0].Int64() == first {
			members = append(members, r[1].Int64())
		}
		return true
	})
	for _, rid := range members {
		if _, err := eng.Insert("focus_has_resource", reldb.Row{reldb.Int(second), reldb.Int(rid)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Open(eng)
	want := fmt.Sprintf("foci %d and %d have the same type and resources", first, second)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over a duplicated focus = %v, want an error saying %q", err, want)
	}
}

// TestFocusWithoutLinksIsNotKeyed: focus rows without links — which no
// commit leaves, a commit being one log group, but a direct engine write
// can — here two, of one type, as a document with two new contexts would
// leave them. The directory keys neither, so reopening finds no
// duplicate, a later load of the same context gets a new, linked focus,
// and a query by its resource finds the result.
func TestFocusWithoutLinksIsNotKeyed(t *testing.T) {
	eng := reldb.NewMem()
	s, err := Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	seedSegmentStudy(t, s)
	var orphans []int64
	for range 2 {
		id, err := eng.Insert("focus", reldb.Row{reldb.Null(), reldb.Str(core.FocusPrimary.String())})
		if err != nil {
			t.Fatal(err)
		}
		orphans = append(orphans, id)
	}
	if s, err = Open(eng); err != nil {
		t.Fatalf("Open over two foci without links = %v, want it opened", err)
	}
	if len(s.names.focusIDs) != 0 {
		t.Fatalf("the directory keys %d foci without links", len(s.names.focusIDs))
	}
	rid := addSegResults(t, s, 1, 2)[0] // one primary context: /irs and node 1
	var fids []int64
	if err := s.ResultFoci(context.Background(), []int64{rid}, func(_ int, fid int64) { fids = append(fids, fid) }); err != nil {
		t.Fatal(err)
	}
	if len(fids) != 1 || slices.Contains(orphans, fids[0]) {
		t.Fatalf("the result links foci %v, want one new focus, not one of %v", fids, orphans)
	}
	links, _ := eng.Table("focus_has_resource")
	n := 0
	eachRow(links, func(_ int64, r reldb.Row) bool {
		if r[0].Int64() == fids[0] {
			n++
		}
		return true
	})
	if n != 2 {
		t.Fatalf("the new focus %d has %d links, want 2", fids[0], n)
	}
	fam := core.NewFamily("/GM/MCR/batch/n1/p0")
	got, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{Families: []core.Family{fam}})
	if err != nil || !slices.Equal(got, []int64{rid}) {
		t.Fatalf("results of the context's resource = %v, %v; want [%d]", got, err, rid)
	}
	checkNamesMatchRows(t, s, "after the load")
}

// TestInternFocusHitAllocatesNothing: re-interning a context the store
// holds, in any resource order, builds its key in reused buffers and
// looks it up without a copy.
func TestInternFocusHitAllocatesNothing(t *testing.T) {
	s := newStore(t)
	seedSegmentStudy(t, s)
	rid := addSegResults(t, s, 1, 2)[0]
	var want int64
	if err := s.ResultFoci(context.Background(), []int64{rid}, func(_ int, fid int64) { want = fid }); err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Type: core.FocusPrimary, Resources: []core.ResourceName{"/GM/MCR/batch/n1/p0", "/irs", "/irs"}}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var got int64
	var err error
	allocs := testing.AllocsPerRun(100, func() { got, err = s.internFocus(ctx) })
	if err != nil || got != want {
		t.Fatalf("internFocus = %d, %v; want the stored focus %d", got, err, want)
	}
	if allocs != 0 {
		t.Fatalf("a hit allocated %.0f times, want 0", allocs)
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
			if _, err := stage(st, fullShapedDoc(exec, procs, funcs, metrics)).CommitCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range []*Store{s, twin} {
		if _, err := stage(st, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
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
