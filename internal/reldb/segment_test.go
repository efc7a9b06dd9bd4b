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
// sync mode on, everything committed is already in the log.
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

// TestSegmentCheckpointIsIncremental: a checkpoint writes the tail to a
// segment and leaves the flushed ones as they are, writes no snapshot,
// and leaves the log holding the schema alone; the rows committed after it
// are durable in the log.
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
	if _, err := os.Stat(filepath.Join(dir, "perftrack.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a checkpoint wrote perftrack.snap (%v)", err)
	}
	logHoldsSchemaOnly(t, osFS{}, dir)
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

// TestOpenKinds: Open makes the in-memory engine for "mem" and the
// directory engine for "segment" and "", which needs a directory; any
// other kind is refused.
func TestOpenKinds(t *testing.T) {
	eng, err := Open(KindMem, "")
	if err != nil {
		t.Fatalf("mem open: %v", err)
	}
	if db, ok := eng.(*DB); !ok || db.Kind() != KindMem {
		t.Fatalf("mem open: %T of kind %q, want *DB of kind %q", eng, eng.DB().Kind(), KindMem)
	}
	eng.Close()
	for _, kind := range []string{"bogus", "wal"} {
		if _, err := Open(kind, t.TempDir()); err == nil {
			t.Fatalf("kind %q accepted", kind)
		}
	}
	if _, err := Open(KindSegment, ""); err == nil {
		t.Fatal("a directory store opened without a directory")
	}
	for _, kind := range []string{"", KindSegment} {
		eng, err := Open(kind, t.TempDir())
		if err != nil {
			t.Fatalf("Open(%q): %v", kind, err)
		}
		if fe, ok := eng.(*DB); !ok || fe.Kind() != KindSegment {
			t.Fatalf("Open(%q) = %T of kind %q, want *DB of kind %q", kind, eng, eng.DB().Kind(), KindSegment)
		}
		eng.Close()
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
// allocating for them: the packed stream is checked against the rows and
// its width. (A zero-width stream is valid for any row count, so the
// image's row IDs are given a stride that varies.)
func TestSegmentRowCountCheckedBeforeAllocation(t *testing.T) {
	db := newTestMem(t)
	if err := db.CreateTable(fhrSchema()); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("focus_has_resource")
	seg, err := buildSegment(tab, []int64{1, 3, 4}, []Row{{Int(1), Int(1)}, {Int(1), Int(2)}, {Int(2), Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	img := encodeSegment(seg)
	if _, err := decodeSegment(img); err != nil {
		t.Fatalf("the image as written: %v", err)
	}
	img = withRows(img, 1<<30-1)
	if len(img) >= 1024 {
		t.Fatalf("%d-byte image", len(img))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeSegment(img)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("err = %v, want ErrCorruptSegment", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding allocated %d bytes", grew)
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
		if v.Consecutive() { // held as a range, no offsets
			least = 0
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
	fhr, err := buildSegment(tab, ids[:3], []Row{{Int(1), Null(), Float(0.5), Bool(true)}, {Int(2), Str("a"), Float(0.5), Bool(true)}, {Int(4), Str("a"), Float(0.5), Bool(false)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeSegment(fhr)) // row IDs of stride 1 and a constant float column: zero-width streams
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
