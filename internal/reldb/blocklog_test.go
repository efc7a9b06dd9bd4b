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

// personRows returns n rows of the person table whose keys the table
// assigns, starting at the (from)th: a few hold NULLs, one score is
// negative zero and one NaN, so the column codecs meet each case.
func personRows(from, n int) []Row {
	rows := make([]Row, n)
	for k := range rows {
		i := from + k
		age, score := Int(int64(20+i%7)), Float(float64(i)/4)
		switch i % 5 {
		case 1:
			age = Null()
		case 2:
			score = Null()
		case 3:
			score = Float(math.Copysign(0, -1))
		case 4:
			score = Float(math.NaN())
		}
		rows[k] = Row{Null(), Str(fmt.Sprintf("p%d", i%3)), age, score}
	}
	return rows
}

// commitRows inserts rows into table in one transaction.
func commitRows(t *testing.T, db *DB, table string, rows []Row) {
	t.Helper()
	tx := db.Begin()
	for _, row := range rows {
		if _, err := tx.Insert(table, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// dumpTable renders every row of the table with its row ID, in row-ID
// order, bit-exactly: NaN and negative zero are told apart from others.
func dumpTable(t *testing.T, db *DB, table string) []string {
	t.Helper()
	tab, ok := db.Table(table)
	if !ok {
		t.Fatalf("no table %q", table)
	}
	var out []string
	if err := Visit(tab, "", nil, func(id int64, row Row) bool {
		var b strings.Builder
		fmt.Fprintf(&b, "%d:", id)
		for _, v := range row {
			if v.Kind() == KindFloat {
				fmt.Fprintf(&b, " f%x", math.Float64bits(v.Float64()))
			} else {
				fmt.Fprintf(&b, " %v", v)
			}
		}
		out = append(out, b.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// logPathOf returns the path of the log file the engine's next record
// goes to.
func logPathOf(db *DB) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.path
}

// fileSize returns the size of a file on disk.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileEngineTornCommitRecovery cuts the group of the last commit at
// every byte offset. Recovery keeps the rows of the earlier commits and
// none of the cut one — never its first rows — and takes the log back to
// where the cut commit began.
func TestFileEngineTornCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	commitRows(t, fe, "person", personRows(0, 6))
	commitRows(t, fe, "person", personRows(6, 6))
	want := dumpTable(t, fe, "person")
	log := logPathOf(fe)
	fe.Stats() // writes the log
	mark := fileSize(t, log)
	commitRows(t, fe, "person", personRows(12, 6))
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	end := fileSize(t, log)
	if ops := logRecords(t, osFS{}, log); len(ops) != 4 || ops[3].op != opInsertBlock || ops[3].block.rows != 6 || ops[3].more {
		t.Fatalf("the log holds %d records, want the table's and one block record of 6 rows per commit", len(ops))
	}
	for cut := mark; cut < end; cut++ {
		crashed := filepath.Join(t.TempDir(), "db")
		copyTree(t, dir, crashed)
		cutLog := filepath.Join(crashed, segmentSubdir, filepath.Base(log))
		if err := os.Truncate(cutLog, cut); err != nil {
			t.Fatal(err)
		}
		db := openTestEngine(t, crashed)
		if got := dumpTable(t, db, "person"); !slices.Equal(got, want) {
			t.Fatalf("cut at byte %d of %d..%d: recovered\n%s\nwant the first two commits\n%s", cut, mark, end, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if db.replayedRows != 12 {
			t.Fatalf("cut at byte %d: replayed %d rows, want 12", cut, db.replayedRows)
		}
		if size := fileSize(t, cutLog); size != mark {
			t.Fatalf("cut at byte %d: the log holds %d bytes after recovery, want %d", cut, size, mark)
		}
		commitRows(t, db, "person", personRows(12, 1)) // takes writes again
		db.Close()
	}
}

// TestFileEngineTornCommitRunRecovery commits more rows to one table than
// a block record holds, so the commit's group is a run of records. A
// crash that keeps the run's first record whole and nothing of the
// second, or cuts the second, leaves none of the commit.
func TestFileEngineTornCommitRunRecovery(t *testing.T) {
	schema := &Schema{Name: "pair", Columns: []Column{{Name: "id", Type: KindInt}, {Name: "v", Type: KindInt}}, PrimaryKey: []string{"id"}}
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, schema)
	StopCompactor(fe)
	fe.SetSegmentFlushRows(1 << 30)
	commitRows(t, fe, "pair", []Row{{Null(), Int(-1)}})
	log := logPathOf(fe)
	fe.Stats()
	mark := fileSize(t, log)
	big := make([]Row, recordRows(2)+100)
	for i := range big {
		big[i] = Row{Null(), Int(int64(i % 1000))}
	}
	commitRows(t, fe, "pair", big)
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}
	recs := logRecords(t, osFS{}, log)
	if len(recs) != 4 || !recs[2].more || recs[3].more || recs[2].block.rows != recordRows(2) || recs[3].block.rows != 100 {
		t.Fatalf("the big commit was not logged as a run of two block records")
	}
	first := mark + 8 + int64(len(encodeMutationPayload(recs[2])))
	end := fileSize(t, log)
	for _, cut := range []int64{first, first + 5, end - 1, end} {
		crashed := filepath.Join(t.TempDir(), "db")
		copyTree(t, dir, crashed)
		cutLog := filepath.Join(crashed, segmentSubdir, filepath.Base(log))
		if err := os.Truncate(cutLog, cut); err != nil {
			t.Fatal(err)
		}
		db := openTestEngine(t, crashed)
		tab, _ := db.Table("pair")
		want, wantLog := 1, mark
		if cut == end {
			want, wantLog = 1+len(big), end
		}
		if tab.Len() != want || db.replayedRows != want {
			t.Fatalf("cut at byte %d: %d rows (%d replayed), want %d", cut, tab.Len(), db.replayedRows, want)
		}
		if size := fileSize(t, cutLog); size != wantLog {
			t.Fatalf("cut at byte %d: the log holds %d bytes after recovery, want %d", cut, size, wantLog)
		}
		db.Close()
	}
}

// blockSample returns a block of person rows laid out as a transaction
// lays them out, zone maps computed.
func blockSample(t *testing.T, n int) *ColumnBlock {
	t.Helper()
	b := &ColumnBlock{}
	if err := b.reset(personSchema(), n); err != nil {
		t.Fatal(err)
	}
	for i, row := range personRows(0, n) {
		row[0] = Int(int64(100 + i))
		b.appendRow(int64(7+i), row)
	}
	b.finish()
	return b
}

// TestBlockRecordHostile: a block record round-trips bit-exactly, and a
// decoder given a cut, oversized or inconsistent one fails with
// ErrCorruptLog before it allocates for the rows it claims.
func TestBlockRecordHostile(t *testing.T) {
	b := blockSample(t, 23)
	payload := encodeMutationPayload(&mutation{op: opInsertBlock, table: "person", block: b, more: true})
	m, err := decodeMutationPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.table != "person" || !m.more || m.block.rows != b.rows || !m.block.matches(personSchema()) {
		t.Fatalf("decoded %q, more=%v, %d rows", m.table, m.more, m.block.rows)
	}
	for i := 0; i < b.rows; i++ {
		if m.block.rowIDs.At(i) != b.rowIDs.At(i) || !rowsEqual(m.block.Row(i, nil), b.Row(i, nil)) {
			t.Fatalf("row %d decodes to %d %v, want %d %v", i, m.block.rowIDs.At(i), m.block.Row(i, nil), b.rowIDs.At(i), b.Row(i, nil))
		}
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeMutationPayload(payload[:cut]); !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("a payload cut at byte %d of %d decodes: %v", cut, len(payload), err)
		}
	}
	if _, err := decodeMutationPayload(append(slices.Clone(payload), 0)); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("a payload with a trailing byte decodes: %v", err)
	}
	head := append(putString([]byte{byte(opInsertBlock)}, "person"), 0)
	// prefix is a record's head, its counts and row IDs of stride 1, which
	// take no bytes a row; column appends a column's kind, the length it
	// claims and its block.
	prefix := func(rows, ncols uint64) []byte {
		return appendInts(putUvarint(putUvarint(slices.Clone(head), rows), ncols), 0, []int64{1, 2})
	}
	column := func(p []byte, kind Kind, n int, block ...byte) []byte {
		return append(putUvarint(append(p, byte(kind)), uint64(n)), block...)
	}
	constant := append([]byte{0}, appendInts(nil, 0, []int64{5, 5})...) // no NULLs, one value: no bytes a row
	ints := func(rows, ncols uint64) []byte {
		p := prefix(rows, ncols)
		for range ncols {
			p = column(p, KindInt, len(constant), constant...)
		}
		return p
	}
	for _, ncols := range []uint64{1, 3} {
		if _, err := decodeMutationPayload(ints(uint64(recordRows(int(ncols))), ncols)); err != nil {
			t.Fatalf("a well-formed record of %d columns at the bound: %v", ncols, err)
		}
	}
	// The most a record can make the decoder allocate: as many cells as it
	// may hold, strings of one word, a few bytes in all.
	words := append([]byte{0}, appendInts(putString(putUvarint(nil, 1), "w"), 0, []int64{0, 0})...)
	worst := column(prefix(blockRecordCells, 1), KindString, len(words), words...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodeMutationPayload(worst)
	runtime.ReadMemStats(&after)
	if err != nil || after.TotalAlloc-before.TotalAlloc > 4<<20 {
		t.Fatalf("a %d-byte record at the cell bound: %v, %d bytes allocated", len(worst), err, after.TotalAlloc-before.TotalAlloc)
	}
	badFlag := slices.Clone(payload)
	badFlag[len(head)-1] = 2
	for name, p := range map[string][]byte{
		"no rows":          ints(0, 1),
		"too many rows":    ints(blockRecordCells+1, 1),
		"too many cells":   ints(uint64(recordRows(3))+1, 3),
		"2^62 rows":        ints(1<<62, 1),
		"2^40 columns":     prefix(2, 1<<40),
		"column past end":  column(prefix(2, 1), KindInt, 1000, 0),
		"unknown kind":     column(prefix(2, 1), 9, 1, 0),
		"more flag of 2":   badFlag,
		"packed past end":  append(putUvarint(putUvarint(slices.Clone(head), 2), 1), 2, 2, 64),
		"bitmap past end":  column(prefix(9, 1), KindInt, 2, 1, 0),
		"words past count": column(prefix(1, 1), KindString, 4, 0, 9, 1, 'x'),
	} {
		if _, err := decodeMutationPayload(p); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: decodes: %v", name, err)
		}
	}
	// A framed record's checksum covers its payload.
	rec := appendBlockRecords(nil, "person", b)
	if crc32.ChecksumIEEE(rec[8:]) != binary.LittleEndian.Uint32(rec[4:]) || int(binary.LittleEndian.Uint32(rec)) != len(rec)-8 {
		t.Fatal("appendBlockRecords frames its record wrongly")
	}
	// endGroup clears the flag of the group's last record and checksums it
	// again.
	two := appendBlockRecords(slices.Clone(rec), "person", b)
	endGroup(two, 0)
	var more []bool
	for rr := newRecordReader(bytes.NewReader(two)); ; {
		payload, err := rr.readRecord()
		if err != nil {
			break
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, m.more)
	}
	if !slices.Equal(more, []bool{true, false}) {
		t.Fatalf("after endGroup the records are continued = %v, want [true false]", more)
	}
}

// TestTornGroupLeavesNothing cuts a document-shaped commit — results,
// foci, their links and closure links, six tables in one group — at every
// byte of its group: the store reopens to the state before the commit,
// never to part of it, and takes the log back to where the group began.
func TestTornGroupLeavesNothing(t *testing.T) {
	p := newHotPairOn(t, newMemFS(), "db")
	p.fe.SetSegmentFlushRows(1 << 40) // no pass: the log is one file
	p.load(0, 12)
	want := dumpDB(p.fe, HotTables)
	p.fe.Stats() // writes the log
	path, mark := logPathOf(p.fe), p.fe.log.size
	p.load(12, 12)
	if err := p.fe.Close(); err != nil {
		t.Fatal(err)
	}
	mem := p.fsys.(*memFS)
	end, _ := mem.Size(path)
	if recs := logRecords(t, mem, path); len(groupEnds(t, mem, path)) != 8 || len(recs) != 6+2*6 {
		t.Fatalf("the log holds %d records, want the schema's six groups and two commits of six tables each", len(recs))
	}
	for cut := mark; cut < end; cut++ {
		crashed := mem.Crash()
		if err := crashed.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		db := openTestEngineOn(t, crashed, "db")
		if got := dumpDB(db, HotTables); got != want {
			t.Fatalf("cut at byte %d of %d..%d: the store holds\n%s\nwant the state before the commit\n%s", cut, mark, end, got, want)
		}
		if size, _ := crashed.Size(path); size != mark {
			t.Fatalf("cut at byte %d: the log holds %d bytes after recovery, want %d", cut, size, mark)
		}
		db.Close()
	}
}
