package reldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func resultSchema() *Schema {
	return &Schema{
		Name: "performance_result",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "execution_id", Type: KindInt},
			{Name: "metric_id", Type: KindInt},
			{Name: "tool_id", Type: KindInt},
			{Name: "units_id", Type: KindInt, Nullable: true},
			{Name: "value", Type: KindFloat},
		},
		PrimaryKey: []string{"id"},
	}
}

func fhrSchema() *Schema {
	return &Schema{
		Name: "focus_has_resource",
		Columns: []Column{
			{Name: "focus_id", Type: KindInt},
			{Name: "resource_id", Type: KindInt},
		},
		PrimaryKey: []string{"focus_id", "resource_id"},
	}
}

// resultRow synthesizes a deterministic performance_result row for i.
func resultRow(i int) Row {
	units := Null()
	if i%3 != 0 {
		units = Int(int64(i % 5))
	}
	return Row{Null(), Int(int64(i % 7)), Int(int64(i % 13)), Int(1), units, Float(float64(i) * 1.5)}
}

// buildSegment lays (ids, rows) out column-major. The rows must match
// the table's schema and arrive in primary-key order; ids[i] is the row
// ID of rows[i]. It reads only what never changes about t.
func buildSegment(t *Table, ids []int64, rows []Row) (*segment, error) {
	if len(ids) == 0 || len(ids) != len(rows) {
		return nil, fmt.Errorf("reldb: buildSegment: bad batch (%d ids, %d rows)", len(ids), len(rows))
	}
	seg := &segment{table: t.schema.Name}
	if err := seg.reset(t.schema, len(ids)); err != nil {
		return nil, err
	}
	for i, row := range rows {
		seg.appendRow(ids[i], row)
	}
	seg.complete(t.pkCols)
	return seg, nil
}

// insertResults commits resultRow(0..n-1) as one transaction.
func insertResults(t *testing.T, fe *DB, n int) {
	t.Helper()
	tx := fe.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("performance_result", resultRow(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// abandon simulates a crash: stop the compactor and drop the file
// handles without flushing, checkpointing, or closing cleanly. With
// sync mode on, everything committed is already in the logs.
func abandon(fe *DB) {
	fe.seg.shutdown()
	fe.closeLogs()
}

// hotStatus returns the compaction status /v1/stats reports for a table.
func hotStatus(t *testing.T, fe *DB, table string) SegmentTableStatus {
	t.Helper()
	for _, st := range fe.SegmentStats().Tables {
		if st.Table == table {
			return st
		}
	}
	t.Fatalf("no segment status for %q", table)
	return SegmentTableStatus{}
}

func TestSegmentRoundTrip(t *testing.T) {
	db := newTestMem(t)
	schema := &Schema{
		Name: "mixed",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "label", Type: KindString, Nullable: true},
			{Name: "score", Type: KindFloat, Nullable: true},
			{Name: "flag", Type: KindBool},
			{Name: "neg", Type: KindInt},
		},
		PrimaryKey: []string{"id"},
	}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("mixed")
	labels := []string{"alpha", "beta", "alpha", "", "gamma"}
	var ids []int64
	var rows []Row
	for i := 0; i < 64; i++ {
		row := Row{Int(int64(i)), Str(labels[i%len(labels)]), Float(float64(i) * -0.25), Bool(i%2 == 0), Int(int64(-i * 1000))}
		if i%7 == 0 {
			row[1] = Null()
			row[2] = Float(math.NaN())
		}
		id, err := db.Insert("mixed", row)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		r, _ := tab.Get(id)
		rows = append(rows, r)
	}
	seg, err := buildSegment(tab, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	if seg.minPK != 0 || seg.maxPK != 63 {
		t.Fatalf("pk zone = [%d,%d], want [0,63]", seg.minPK, seg.maxPK)
	}
	got, err := decodeSegment(encodeSegment(seg))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.rows != seg.rows || got.table != "mixed" {
		t.Fatalf("decoded rows=%d table=%q", got.rows, got.table)
	}
	for i := 0; i < got.rows; i++ {
		if got.rowIDs.At(i) != seg.rowIDs.At(i) {
			t.Fatalf("rowID[%d] = %d, want %d", i, got.rowIDs.At(i), seg.rowIDs.At(i))
		}
		if !rowsEqual(got.Row(i, nil), seg.Row(i, nil)) {
			t.Fatalf("row %d mismatch: %v vs %v", i, got.Row(i, nil), seg.Row(i, nil))
		}
	}
}

func TestSegmentCompactScanAndPrune(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 1000)
	tab, _ := fe.Table("performance_result")
	if scan, err := tab.Blocks(1, 1000); err != nil || scan.Segmented() {
		t.Fatalf("segments before compaction (err=%v)", err)
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "performance_result"); st.Rows != 1000 || st.Watermark != 1000 || st.PendingRows != 0 {
		t.Fatalf("status after compaction = %+v", st)
	}

	// Full scan must reproduce every row.
	scan, err := tab.Blocks(1, 1000)
	if err != nil || len(scan.Segments) != 1 {
		t.Fatalf("scan after compaction: err=%v segments=%d, want 1", err, len(scan.Segments))
	}
	seen := 0
	for _, b := range scan.Segments {
		ids := Values(b.Ints(0))
		execs := Values(b.Ints(1))
		vals := b.Float64s(5)
		nulls := b.Nulls(4)
		units := Values(b.Ints(4))
		for i := range ids {
			row, found := tab.Get(b.IDs().At(i))
			if !found {
				t.Fatalf("segment row %d missing from table", ids[i])
			}
			if row[1].Int64() != execs[i] || row[5].Float64() != vals[i] {
				t.Fatalf("row %d content mismatch", ids[i])
			}
			if row[4].IsNull() != (nulls != nil && nulls[i]) {
				t.Fatalf("row %d null mismatch", ids[i])
			}
			if !row[4].IsNull() && row[4].Int64() != units[i] {
				t.Fatalf("row %d units mismatch", ids[i])
			}
			seen++
		}
	}
	if seen != 1000 {
		t.Fatalf("scanned %d rows, want 1000", seen)
	}

	// Second segment; a range inside it prunes the first.
	insertResults(t, fe, 500)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "performance_result"); st.Segments != 2 || st.Rows != 1500 {
		t.Fatalf("status after second compaction = %+v", st)
	}
	scan, err = tab.Blocks(1200, 1400)
	if err != nil || scan.Pruned != 1 || len(scan.Segments) != 1 {
		t.Fatalf("scan: err=%v pruned=%d segments=%d, want 1 and 1", err, scan.Pruned, len(scan.Segments))
	}
	if scan.Bytes == 0 {
		t.Fatal("scan bytes not accounted")
	}
}

func TestSegmentCrashRecoveryBetweenCompactionAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	fe.SetSync(true)
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	if err := fe.CreateTable(fhrSchema()); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 2000)
	tx := fe.Begin()
	for f := 1; f <= 50; f++ {
		for r := 1; r <= 4; r++ {
			if _, err := tx.Insert("focus_has_resource", Row{Int(int64(f)), Int(int64(r))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	// Committed transactions after the compaction, then crash before any
	// checkpoint: the WAL must carry everything across the restart.
	insertResults(t, fe, 500)
	abandon(fe)

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("performance_result")
	if tab.Len() != 2500 {
		t.Fatalf("rows after recovery = %d, want 2500", tab.Len())
	}
	link, _ := fe2.Table("focus_has_resource")
	if link.Len() != 200 {
		t.Fatalf("link rows after recovery = %d, want 200", link.Len())
	}
	// Content spot-checks across segment-resident and tail rows.
	for _, id := range []int64{1, 999, 2000, 2001, 2500} {
		row, ok := tab.Get(id)
		if !ok {
			t.Fatalf("row %d lost", id)
		}
		want := resultRow(int((id - 1) % 2000))
		if row[5].Float64() != want[5].Float64() {
			t.Fatalf("row %d value = %v, want %v", id, row[5], want[5])
		}
	}
	if st := hotStatus(t, fe2, "performance_result"); st.Rows != 2000 || st.PendingRows != 500 {
		t.Fatalf("recovered status = %+v, want 2000 segment rows and a 500-row tail", st)
	}
	if st := hotStatus(t, fe2, "focus_has_resource"); st.Rows != 200 || st.PendingRows != 0 {
		t.Fatalf("recovered link status = %+v, want 200 segment rows", st)
	}
}

// legacySnapshot renders what a checkpoint wrote to perftrack.snap before
// manifest version 5: every table's schema, each followed by the rows no
// segment holds — its tails'.
func legacySnapshot(db *DB) []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var snap []byte
	for _, t := range db.order {
		snap = appendRecord(snap, encodeSchemaPayload([]byte{snapTagSchema}, t.schema))
		for _, s := range t.tailsLocked() {
			span{s, &s.ColumnBlock, s.pkPerm(t.pkCols), 0, s.rows}.each(func(b *ColumnBlock, i int) bool {
				snap = appendRecord(snap, encodeRowPayload(putVarint([]byte{snapTagRow}, b.rowIDs.At(i)), b.Row(i, nil)))
				return true
			})
		}
	}
	return snap
}

// asLegacy makes the store at dir of fsys one that a program before
// manifest version 5 left: snap is its perftrack.snap, and its manifest
// says version 4.
func asLegacy(t *testing.T, fsys FS, dir string, snap []byte) {
	t.Helper()
	if err := replaceFile(fsys, filepath.Join(dir, snapshotFile), snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentSubdir, manifestFile)
	buf, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := newRecordReader(bytes.NewReader(buf)).readRecord()
	if err != nil {
		t.Fatal(err)
	}
	p := &payloadReader{buf: hdr}
	if version := p.uvarint(); version != manifestVersion {
		t.Fatalf("the manifest says version %d, want %d", version, manifestVersion)
	}
	legacy := appendRecord(nil, putVarint(putUvarint(nil, segmentsHoldRowsVersion-1), p.varint()))
	if err := replaceFile(fsys, path, append(legacy, buf[8+len(hdr):]...)); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentCheckpointIsIncremental: a checkpoint writes the tail to a
// segment and leaves the flushed ones as they are, writes no snapshot,
// and leaves perftrack.wal holding the schema alone; the rows committed
// after it are durable in their tail log.
func TestSegmentCheckpointIsIncremental(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 2000)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	flushed, _ := filepath.Glob(filepath.Join(dir, segmentSubdir, "*.seg"))
	written := fe.SegmentStats().SegmentsWritten
	insertResults(t, fe, 100) // unflushed tail
	if err := fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint compacts the tail into one more segment and rewrites
	// nothing else.
	segs, _ := filepath.Glob(filepath.Join(dir, segmentSubdir, "*.seg"))
	if got := fe.SegmentStats().SegmentsWritten - written; got != 1 || len(segs) != len(flushed)+1 || !slices.Equal(segs[:len(flushed)], flushed) {
		t.Fatalf("the checkpoint wrote %d segments, leaving %v where %v were", got, segs, flushed)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a checkpoint wrote %s (%v)", snapshotFile, err)
	}
	walHoldsSchemaOnly(t, osFS{}, dir)
	insertResults(t, fe, 50)
	fe.SetSync(true)
	insertResults(t, fe, 1) // force a synced flush of the tail
	abandon(fe)

	fe2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fe2.Close()
	tab, _ := fe2.Table("performance_result")
	if tab.Len() != 2151 {
		t.Fatalf("rows after reopen = %d, want 2151", tab.Len())
	}
}

// modelResults returns a model holding resultRow(0..n-1), the reference
// the engine's reads are compared with.
func modelResults(t *testing.T, n int) *refModel {
	t.Helper()
	m := newRefModel()
	schema := resultSchema()
	schema.Indexes = []IndexSpec{{Name: "by_exec", Columns: []string{"execution_id"}}}
	if err := m.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tx := m.begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert("performance_result", resultRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSegmentDeleteReplacesSegment: a delete of a flushed row replaces
// the segment holding it — at once, under one commit, with a copy the
// table reads from while the old file stays named — and the next pass
// writes the copy and deletes the old file; the table never leaves its
// segments, and a reopen reads the same.
func TestSegmentDeleteReplacesSegment(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	defer func() { fe.Close() }()
	fe.seg.shutdown() // the pass below runs on this goroutine
	schema := resultSchema()
	schema.Indexes = []IndexSpec{{Name: "by_exec", Columns: []string{"execution_id"}}}
	if err := fe.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 1000)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	mem := modelResults(t, 1000)
	ref := mem.tables["performance_result"]
	tab, _ := fe.Table("performance_result")
	sameReads(t, "flushed", tab, ref)
	old := tab.segs[0].file

	for _, eng := range []writer{fe, mem} {
		if err := eng.Delete("performance_result", 5); err != nil {
			t.Fatal(err)
		}
	}
	if st := hotStatus(t, fe, "performance_result"); st.Segments != 1 || st.Rows != 999 || st.PendingRows != 0 {
		t.Fatalf("status after deleting a flushed row = %+v, want one 999-row segment", st)
	}
	if s := tab.segs[0]; s.file != "" || !slices.Equal(s.replaces, []string{old}) {
		t.Fatalf("the segment after the delete is written to %q and replaces %v, want unwritten in place of %s", s.file, s.replaces, old)
	}
	sameReads(t, "replaced", tab, ref)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if s := tab.segs[0]; s.file == "" || s.file == old || len(s.replaces) != 0 || s.rows != 999 {
		t.Fatalf("the pass left the segment at %q (replacing %v, %d rows)", s.file, s.replaces, s.rows)
	}
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the replaced file is still there: %v", err)
	}
	sameReads(t, "written", tab, ref)
	fe.Close()
	fe = openTestEngine(t, dir)
	tab, _ = fe.Table("performance_result")
	sameReads(t, "reopened", tab, ref)
}

// TestSegmentOverlappingRunsStayColumnar: an insert below the flushed
// maximum lands in the tail as it does above it, the tail seals into a
// segment whose keys overlap the one before, and every read — in key
// order, by index, by block — merges the two runs to the model's answer,
// before and after a checkpoint and a reopen.
func TestSegmentOverlappingRunsStayColumnar(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	defer func() { fe.Close() }()
	mem := newRefModel()
	insert := func(id int64) {
		t.Helper()
		for _, eng := range []writer{fe, mem} {
			if _, err := eng.Insert("performance_result", Row{Int(id), Int(1), Int(1), Int(1), Null(), Float(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, eng := range []writer{fe, mem} {
		if err := eng.CreateTable(resultSchema()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int64{10, 20, 30} {
		insert(id)
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	tab, _ := fe.Table("performance_result")
	ref := mem.tables["performance_result"]
	insert(15) // below the flushed maximum
	sameReads(t, "out-of-order key in the tail", tab, ref)
	insert(40)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "performance_result"); st.Segments != 2 || st.Rows != 5 || st.PendingRows != 0 {
		t.Fatalf("status = %+v, want 5 rows in 2 segments", st)
	}
	scan, err := tab.Blocks(0, 100)
	if err != nil || len(scan.Segments) != 0 {
		t.Fatalf("block scan over overlapping runs: err %v, %d segment blocks handed out whole, want none", err, len(scan.Segments))
	}
	sameReads(t, "overlapping segments", tab, ref)
	insert(35) // between the runs' maxima: overlaps both
	insert(50)
	sameReads(t, "a tail overlapping both", tab, ref)
	if err := fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sameReads(t, "after checkpoint", tab, ref)
	fe.Close()
	fe = openTestEngine(t, dir)
	tab, _ = fe.Table("performance_result")
	sameReads(t, "reopened", tab, ref)
}

func TestTornSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 500)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if err := fe.Checkpoint(); err != nil { // truncate WAL: segments now load-bearing
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentSubdir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("torn segment: err = %v, want ErrCorruptSegment", err)
	}
}

// copyTree copies the files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpenLegacyStoreDirectories opens store directories written by the
// last commit that still had a separate "wal" engine and a
// perftrack.engine marker (testdata/legacy_wal: 5 metric rows and 40
// results in the snapshot, 20 more results only in the WAL;
// testdata/legacy_segment: the same rows, the first 40 results in a
// segment). Every spelling of the directory kind opens them as the one
// engine with every row; the store then compacts, checkpoints and reopens
// with every row, and the leftover marker is ignored.
func TestOpenLegacyStoreDirectories(t *testing.T) {
	eng, err := Open(KindMem, "")
	if err != nil {
		t.Fatalf("mem open: %v", err)
	}
	if db, ok := eng.(*DB); !ok || db.Kind() != KindMem {
		t.Fatalf("mem open: %T of kind %q, want *DB of kind %q", eng, eng.DB().Kind(), KindMem)
	}
	eng.Close()
	if _, err := Open("bogus", t.TempDir()); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if _, err := Open(KindSegment, ""); err == nil {
		t.Fatal("a directory store opened without a directory")
	}
	check := func(t *testing.T, eng Engine, wantSegRows int64) {
		t.Helper()
		fe, ok := eng.(*DB)
		if !ok || fe.Kind() != KindSegment {
			t.Fatalf("engine = %T of kind %q, want *DB of kind %q", eng, eng.DB().Kind(), KindSegment)
		}
		if tab, _ := fe.Table("metric"); tab == nil || tab.Len() != 5 {
			t.Fatalf("metric rows = %v, want 5", tab)
		}
		tab, _ := fe.Table("performance_result")
		if tab == nil || tab.Len() != 60 {
			t.Fatalf("performance_result = %v, want 60 rows", tab)
		}
		for i := 0; i < 60; i++ {
			want := resultRow(i)
			want[0] = Int(int64(i + 1))
			if got, ok := tab.Get(int64(i + 1)); !ok || !rowsEqual(got, want) {
				t.Fatalf("row %d = %v, want %v", i+1, got, want)
			}
		}
		if got := fe.Stats().PerTable["performance_result"].SegmentRows; got != wantSegRows {
			t.Fatalf("segment-resident rows = %d, want %d", got, wantSegRows)
		}
	}
	for _, fixture := range []struct {
		name    string
		segRows int64 // segment-resident rows as written
	}{{"legacy_wal", 0}, {"legacy_segment", 40}} {
		for _, kind := range []string{"wal", "", KindSegment} {
			t.Run(fixture.name+"/open-"+kind, func(t *testing.T) {
				dir := t.TempDir()
				copyTree(t, filepath.Join("testdata", fixture.name), dir)
				eng, err := Open(kind, dir)
				if err != nil {
					t.Fatalf("Open(%q): %v", kind, err)
				}
				check(t, eng, 60) // the open wrote the legacy rows to segments
				fe := eng.DB()
				if err := fe.CompactSegments(); err != nil {
					t.Fatal(err)
				}
				if err := fe.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				check(t, fe, 60)
				if fixture.segRows > 0 { // a format-1 file is read as it is, never rewritten for its format
					want, _ := os.ReadFile(legacySegmentFile)
					got, err := os.ReadFile(filepath.Join(dir, segmentSubdir, filepath.Base(legacySegmentFile)))
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("the format-1 segment after compaction and checkpoint: %v, equal %v", err, bytes.Equal(got, want))
					}
				}
				fe.Close()
				fe2, err := OpenFile(dir)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer fe2.Close()
				check(t, fe2, 60)
			})
		}
		// The old directory under the tail logs, never checkpointed: it loads,
		// compacts, crashes and reopens with every row. The open wrote
		// results 41..60, durable in the old perftrack.wal alone, to
		// segments; the delete of one is in a tail log until the compaction.
		t.Run(fixture.name+"/tail-logs", func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", fixture.name), dir)
			fe := openTestEngine(t, dir)
			insertResults(t, fe, 10)
			if err := fe.Delete("performance_result", 50); err != nil {
				t.Fatal(err)
			}
			if err := fe.CompactSegments(); err != nil {
				t.Fatal(err)
			}
			fe.Stats() // flushes the logs
			abandon(fe)
			fe = openTestEngine(t, dir)
			defer fe.Close()
			tab, _ := fe.Table("performance_result")
			if _, ok := tab.Get(50); ok || tab.Len() != 69 {
				t.Fatalf("after the crash: %d results, deleted row back = %v; want 69 and gone", tab.Len(), ok)
			}
			for i := 0; i < 10; i++ {
				want := resultRow(i)
				want[0] = Int(int64(61 + i))
				if got, ok := tab.Get(int64(61 + i)); !ok || !rowsEqual(got, want) {
					t.Fatalf("row %d = %v, want %v", 61+i, got, want)
				}
			}
			// The compaction wrote the replacement of the block that held the
			// deleted row: no tail log outlives it.
			if st := hotStatus(t, fe, "performance_result"); st.Segments == 0 || st.LogFiles != 0 {
				t.Fatalf("status after the crash = %+v, want segments and no tail log", st)
			}
		})
	}
}

// memCopy returns a memFS holding, durably, the files under src.
func memCopy(t *testing.T, src string) *memFS {
	t.Helper()
	m := newMemFS()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return m.MkdirAll(rel)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return replaceFile(m, rel, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLegacyFilesLeaveAtOpen opens the legacy fixtures — a checkpointed
// directory whose schema and first rows live in perftrack.snap, with more
// rows and, appended here, a CREATE INDEX in perftrack.wal — over an
// in-memory filesystem, with the open's k-th write or sync failing, for
// every k up to the first the open gets through. After each failure the
// directory reopens with every row and index, both as the failed process
// left it and as a power loss leaves it. The open that gets through
// leaves no perftrack.snap, a perftrack.wal holding the schema alone and
// a version-5 manifest, and so does a checkpoint after it; the store
// reads as before.
func TestLegacyFilesLeaveAtOpen(t *testing.T) {
	for _, fixture := range []string{"legacy_wal", "legacy_segment"} {
		t.Run(fixture, func(t *testing.T) {
			src := memCopy(t, filepath.Join("testdata", fixture))
			wal := appendRecord(mustRead(t, src, walFile), encodeMutationPayload(&mutation{op: opCreateIndex,
				table: "performance_result", index: IndexSpec{Name: "by_value", Columns: []string{"value"}}}))
			if err := replaceFile(src, walFile, wal); err != nil {
				t.Fatal(err)
			}
			ref := openTestEngineOn(t, src.Crash(), ".")
			tables := ref.TableNames()
			dump := func(db *DB) string {
				out := dumpDB(db, tables)
				for _, name := range tables {
					tab, _ := db.Table(name)
					out += fmt.Sprintf("%s indexes %v\n", name, tab.Schema().Indexes)
				}
				return out
			}
			want := dump(ref)
			ref.Close()
			if !strings.Contains(want, "by_value") {
				t.Fatalf("the appended index did not replay:\n%s", want)
			}
			for k := 1; ; k++ {
				fsys := &faultFS{memFS: src.Crash()}
				fsys.arm(k)
				db, err := open(fsys, KindMem, ".")
				if tripped := fsys.disarm(); tripped == (err == nil) {
					t.Fatalf("k=%d: the fault fired = %v, the open returned %v", k, tripped, err)
				}
				if err != nil {
					for label, m := range map[string]*memFS{"as left": fsys.memFS, "after a power loss": fsys.memFS.Crash()} {
						re, err := open(m, KindMem, ".")
						if err != nil {
							t.Fatalf("k=%d, %s: %v", k, label, err)
						}
						if got := dump(re); got != want {
							t.Fatalf("k=%d, %s, the store holds\n%s\nwant\n%s", k, label, got, want)
						}
						re.Close()
					}
					continue
				}
				for _, step := range []string{"open", "checkpoint"} {
					if step == "checkpoint" {
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := fsys.Size(snapshotFile); err == nil {
						t.Fatalf("after the %s, %s is still there", step, snapshotFile)
					}
					walHoldsSchemaOnly(t, fsys, ".")
					if hdr, err := newRecordReader(bytes.NewReader(mustRead(t, fsys, filepath.Join(segmentSubdir, manifestFile)))).readRecord(); err != nil || hdr[0] != manifestVersion {
						t.Fatalf("after the %s, the manifest's header is %v (%v), want version %d", step, hdr, err, manifestVersion)
					}
				}
				db.Close()
				db = openTestEngineOn(t, fsys.memFS.Crash(), ".")
				if got := dump(db); got != want {
					t.Fatalf("converted and reopened, the store holds\n%s\nwant\n%s", got, want)
				}
				db.Close()
				return
			}
		})
	}
}

func mustRead(t *testing.T, fsys FS, path string) []byte {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReplaceFileFailureKeepsOldBytes: a replacement whose write fails
// part-way leaves the destination's previous bytes and no temp file.
func TestReplaceFileFailureKeepsOldBytes(t *testing.T) {
	fsys := &faultFS{memFS: newMemFS()}
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	old := []byte("old")
	if err := replaceFile(fsys, "d/f", old); err != nil {
		t.Fatal(err)
	}
	fsys.arm(1) // the temp file's write
	err := replaceFile(fsys, "d/f", bytes.Repeat([]byte("new"), 1<<16))
	if !fsys.disarm() || !errors.Is(err, errFault) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if got, err := fsys.ReadFile("d/f"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("destination changed after failed replace: %q, %v", got, err)
	}
	if names, _ := fsys.ReadDir("d"); len(names) != 1 {
		t.Fatalf("directory holds %v after failed replace, want only the file", names)
	}
}

// legacySegmentFile is a format-1 segment: results 1..40 of
// testdata/legacy_segment.
var legacySegmentFile = filepath.Join("testdata", "legacy_segment", "segments", "seg-performance_result-00000001.seg")

// withRows returns a segment image whose footer claims the given row
// count, its footer CRC made to match.
func withRows(img []byte, rows uint64) []byte {
	end := len(img) - 16
	footerLen := int(binary.LittleEndian.Uint32(img[end:]))
	p := &payloadReader{buf: img[end-footerLen : end]}
	table := p.str()
	p.uvarint()
	footer := append(putUvarint(putString(nil, table), rows), p.buf...)
	out := append(slices.Clip(img[:end-footerLen]), footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(footer))
	return append(out, img[len(img)-8:]...)
}

// TestSegmentRowCountCheckedBeforeAllocation: a CRC-valid image under
// 1 KB whose footer claims 2^30−1 rows is rejected as corrupt without
// allocating for them — format 1, whose varints take a byte a row at
// least, and format 2, whose packed stream is checked against the rows
// and its width. (A zero-width stream is valid for any row count, so the
// format-2 image's row IDs are given a stride that varies.)
func TestSegmentRowCountCheckedBeforeAllocation(t *testing.T) {
	legacy, err := os.ReadFile(legacySegmentFile)
	if err != nil {
		t.Fatal(err)
	}
	db := newTestMem(t)
	if err := db.CreateTable(fhrSchema()); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("focus_has_resource")
	seg, err := buildSegment(tab, []int64{1, 3, 4}, []Row{{Int(1), Int(1)}, {Int(1), Int(2)}, {Int(2), Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{"format 1": legacy, "format 2": encodeSegment(seg)} {
		if _, err := decodeSegment(img); err != nil {
			t.Fatalf("%s: the image as written: %v", name, err)
		}
		img = withRows(img, 1<<30-1)
		if len(img) >= 1024 {
			t.Fatalf("%s: %d-byte image", name, len(img))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeSegment(img)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s: err = %v, want ErrCorruptSegment", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, grew)
		}
	}
}

// TestFloatColumnEncoding: a float column whose values all come from
// short decimal text is written as mantissas at the least exponent that
// reproduces each bit for bit; one value no mantissa reproduces — NaN,
// −0, a subnormal, or one needing an exponent whose mantissas pass 2^53
// for another value — sends the column to raw values. A NULL's value does
// not count.
func TestFloatColumnEncoding(t *testing.T) {
	for _, c := range []struct {
		vals  []float64
		nulls []bool
		e     byte
	}{
		{[]float64{1, 2, 3}, nil, 0},
		{[]float64{12.345678, 0.5, 99}, nil, 6},
		{[]float64{0.1, 0.2, 0.3}, nil, 1},
		{[]float64{1.5, math.NaN()}, nil, rawFloats},
		{[]float64{1.5, math.NaN()}, []bool{false, true}, 1},
		{[]float64{1.5, math.Copysign(0, -1)}, nil, rawFloats},
		{[]float64{5e-324}, nil, rawFloats},
		{[]float64{1e15, 0.001}, nil, rawFloats},
	} {
		img := appendFloats(nil, c.vals, c.nulls)
		if img[0] != c.e {
			t.Errorf("%v (NULLs %v): exponent byte %#x, want %#x", c.vals, c.nulls, img[0], c.e)
		}
		got, rest, err := readFloats(img, len(c.vals))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: read back: %v, %d bytes left", c.vals, err, len(rest))
		}
		for i, v := range c.vals {
			if (c.nulls == nil || !c.nulls[i]) && math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Errorf("%v: value %d read back as %v", c.vals, i, got[i])
			}
		}
	}
}

// FuzzColumnCodec checks that any int64 stream round-trips through the
// integer codec, and any float64 column through the float path, bit for
// bit; and that the stream's in-memory vector is at the least width that
// holds its max − min, reads the same values, writes the same stream, and
// is what the stream decodes to straight from its range — a range that
// leaves a value out makes it corrupt. The input is read as
// little-endian 8-byte words; when its first byte is odd, each word with
// bit 8 set is a NULL, whose value is not kept.
func FuzzColumnCodec(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	fb := math.Float64bits
	f.Add(words(0x7ff8000000000001, 0xfff4000000000abc, fb(1.5))) // NaN payloads
	f.Add(words(fb(math.Copysign(0, -1)), fb(0), fb(2.25)))
	f.Add(words(fb(math.Inf(1)), fb(math.Inf(-1)), fb(3)))
	f.Add(words(fb(5e-324), fb(2.2250738585072009e-308), fb(1e-310))) // subnormals
	f.Add(words(1<<53-1, 1<<53, 1<<53+1, fb(1<<53-1), fb(1<<53), fb(1<<53+2)))
	f.Add(words(1<<63, 1<<63-1, 1<<63, 1<<63-1, 1<<63)) // MinInt64, MaxInt64: the deltas overflow
	f.Add(words(7, 7, 7, 7, 7))                         // constant
	f.Add(words(42))                                    // one row
	f.Add(words(fb(12.345678), fb(0.1), fb(-3.5), fb(1e-7), fb(88.000001)))
	f.Add(words(1|fb(1.5), 0x100|fb(math.NaN()), fb(2))) // odd first byte: the NaN is a NULL
	f.Add([]byte{})
	// Ranges either side of each width's last offset, and the widest.
	f.Add(words(1<<64-5, 250, 0, 100))      // −5…250: 255
	f.Add(words(1<<64-5, 251, 0, 100))      // 256
	f.Add(words(10, 65545, 10))             // 65 535
	f.Add(words(10, 65546, 10))             // 65 536
	f.Add(words(0, 1<<32-1, 7))             // 2^32 − 1
	f.Add(words(0, 1<<32, 7))               // 2^32
	f.Add(words(1<<63, 1<<63-1))            // MinInt64…MaxInt64
	f.Add(words(1<<64-3, 1<<64-3, 1<<64-3)) // constant, negative
	f.Add(words(1 << 62))                   // one row
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		ints, floats := make([]int64, n), make([]float64, n)
		var nulls []bool
		if len(data) > 0 && data[0]&1 == 1 {
			nulls = make([]bool, n)
		}
		for i := range ints {
			w := binary.LittleEndian.Uint64(data[8*i:])
			ints[i], floats[i] = int64(w), math.Float64frombits(w)
			if nulls != nil {
				nulls[i] = w&0x100 != 0
			}
		}
		stream := appendInts(nil, 0, ints)
		gotI, rest, err := readInts(stream, n)
		if err != nil || len(rest) != 0 || !slices.Equal(gotI, ints) {
			t.Fatalf("ints %v read back as %v (err %v, %d bytes left)", ints, gotI, err, len(rest))
		}
		wide := IntVec{n: n, w: 8, i64: ints}
		v := wide.narrowed()
		var lo, hi int64
		if n > 0 {
			lo, hi = slices.Min(ints), slices.Max(ints)
		}
		least := 8
		for _, w := range []int{4, 2, 1, 0} {
			if uint64(hi)-uint64(lo) < 1<<(8*w) {
				least = w
			}
		}
		if v.Width() != least || v.Len() != n || !slices.Equal(Values(&v), ints) {
			t.Fatalf("ints %v: vector at width %d reads %v, want width %d", ints, v.Width(), Values(&v), least)
		}
		if got := appendIntVec(nil, &v); !bytes.Equal(got, stream) {
			t.Fatalf("ints %v: the width-%d vector writes %x, want %x", ints, v.Width(), got, stream)
		}
		rv, rest, err := readIntVec(stream, n, lo, hi)
		if err != nil || len(rest) != 0 || rv.Width() != least || !slices.Equal(Values(&rv), ints) {
			t.Fatalf("ints %v decoded from [%d, %d] at width %d as %v (err %v)", ints, lo, hi, rv.Width(), Values(&rv), err)
		}
		if lo < hi {
			if _, _, err := readIntVec(stream, n, lo, hi-1); !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("ints %v decoded from [%d, %d], which leaves %d out: err %v", ints, lo, hi-1, hi, err)
			}
		}
		gotF, rest, err := readFloats(appendFloats(nil, floats, nulls), n)
		if err != nil || len(rest) != 0 || len(gotF) != n {
			t.Fatalf("floats %v: err %v, %d values, %d bytes left", floats, err, len(gotF), len(rest))
		}
		for i, v := range floats {
			if (nulls == nil || !nulls[i]) && math.Float64bits(gotF[i]) != math.Float64bits(v) {
				t.Fatalf("float %d = %v (%#x) read back as %v (%#x)", i, v, math.Float64bits(v), gotF[i], math.Float64bits(gotF[i]))
			}
		}
	})
}

// FuzzSegment checks that arbitrary bytes never panic the segment
// decoder, that valid images round-trip, and that truncated (torn-tail)
// images are rejected.
func FuzzSegment(f *testing.F) {
	db := newTestMem(f)
	schema := &Schema{
		Name: "fz",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "name", Type: KindString, Nullable: true},
			{Name: "v", Type: KindFloat},
			{Name: "ok", Type: KindBool},
		},
		PrimaryKey: []string{"id"},
	}
	if err := db.CreateTable(schema); err != nil {
		f.Fatal(err)
	}
	tab, _ := db.Table("fz")
	var ids []int64
	var rows []Row
	for i := 0; i < 9; i++ {
		row := Row{Int(int64(i * 3)), Str("w"), Float(float64(i)), Bool(i%2 == 0)}
		if i == 4 {
			row[1] = Null()
		}
		id, _ := db.Insert("fz", row)
		r, _ := tab.Get(id)
		ids = append(ids, id)
		rows = append(rows, r)
	}
	seg, err := buildSegment(tab, ids, rows)
	if err != nil {
		f.Fatal(err)
	}
	valid := encodeSegment(seg)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	legacy, err := os.ReadFile(legacySegmentFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy) // format 1
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSegment(data)
		if err != nil {
			return
		}
		// A valid decode must re-encode to another valid image with
		// identical logical content.
		re, err := decodeSegment(encodeSegment(s))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re.rows != s.rows || re.table != s.table {
			t.Fatalf("round trip changed shape: %d/%q vs %d/%q", re.rows, re.table, s.rows, s.table)
		}
		for i := 0; i < s.rows; i++ {
			if re.rowIDs.At(i) != s.rowIDs.At(i) || !rowsEqual(re.Row(i, nil), s.Row(i, nil)) {
				t.Fatalf("row %d changed in round trip", i)
			}
		}
		// Any truncation of a valid image must be rejected.
		if len(data) > 1 {
			if _, err := decodeSegment(data[:len(data)-1]); err == nil {
				t.Fatal("torn tail accepted")
			}
		}
	})
}

// TestSegmentLegacyRowIDsOutOfOrderMerge: a perftrack.wal an older
// program wrote can hold the insert of a hot row under a row ID below
// the ones a segment holds. Recovery replays it into the tail, then
// merges the table's rows into one block that replaces the segment file,
// so row IDs ascend from block to block again; the next pass writes the
// block, and every read agrees with the model throughout.
func TestSegmentLegacyRowIDsOutOfOrderMerge(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	schema := resultSchema()
	schema.Indexes = []IndexSpec{{Name: "by_exec", Columns: []string{"execution_id"}}}
	if err := fe.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	insertResults(t, fe, 100)
	mem := modelResults(t, 100)
	for _, eng := range []writer{fe, mem} {
		if err := eng.Delete("performance_result", 50); err != nil {
			t.Fatal(err)
		}
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	old := resultRow(49)
	old[0] = Int(50)
	logRecord(t, fe, &mutation{op: opInsert, table: "performance_result", id: 50, row: old})
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	ref := mem.tables["performance_result"]
	ref.rows[50] = old
	fe = openTestEngine(t, dir)
	defer func() { fe.Close() }()
	tab, _ := fe.Table("performance_result")
	if tab.sealed == nil || len(tab.segs) != 0 || tab.sealed.rows != 100 || len(tab.sealed.replaces) != 1 {
		t.Fatalf("recovery left %d segments and a sealed block %+v, want one 100-row block replacing the segment", len(tab.segs), tab.sealed)
	}
	sameReads(t, "merged", tab, ref)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, fe, "performance_result"); st.Segments != 1 || st.Rows != 100 {
		t.Fatalf("after the pass: %+v, want one 100-row segment", st)
	}
	sameReads(t, "written", tab, ref)
	fe.Close()
	fe = openTestEngine(t, dir)
	tab, _ = fe.Table("performance_result")
	sameReads(t, "reopened", tab, ref)
}
