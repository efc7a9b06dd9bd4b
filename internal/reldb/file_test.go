package reldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestEngine(t *testing.T, dir string) *DB { return openTestEngineOn(t, osFS{}, dir) }

// update replaces row id of table with row in one transaction — a delete
// and an insert — and returns the new image's row ID.
func update(db *DB, table string, id int64, row Row) (nid int64, err error) {
	err = db.one(func(tx *Tx) error {
		if err := tx.Delete(table, id); err != nil {
			return err
		}
		nid, err = tx.Insert(table, row)
		return err
	})
	return nid, err
}

// logGroup appends the records to the engine's log as one group without
// applying them — what a log holding them replays — and writes it.
func logGroup(t *testing.T, db *DB, ms ...*mutation) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	var buf []byte
	for i, m := range ms {
		m.more = i < len(ms)-1
		buf = appendRecord(buf, encodeMutationPayload(m))
	}
	db.log.appendFramed(buf)
	if err := db.log.flush(); err != nil {
		t.Fatal(err)
	}
}

// logFiles returns the paths of a store's log files, oldest first.
func logFiles(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	names, err := fsys.ReadDir(filepath.Join(dir, segmentSubdir))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, name := range names {
		if _, ok := parseLogName(name); ok {
			paths = append(paths, filepath.Join(dir, segmentSubdir, name))
		}
	}
	return paths
}

// groupEnds returns the offset at which each whole group of a log file
// ends.
func groupEnds(t *testing.T, fsys FS, path string) []int64 {
	t.Helper()
	var ends []int64
	var off int64
	for _, m := range logRecords(t, fsys, path) {
		off += 8 + int64(len(encodeMutationPayload(m)))
		if !m.more {
			ends = append(ends, off)
		}
	}
	return ends
}

// logHoldsSchemaOnly fails unless the store has one log file and it holds
// what a checkpoint leaves: one group, of the record naming the file it
// continues and a CREATE TABLE record per table.
func logHoldsSchemaOnly(t *testing.T, fsys FS, dir string) {
	t.Helper()
	files := logFiles(t, fsys, dir)
	if len(files) != 1 {
		t.Fatalf("%d log files after a checkpoint, want 1: %v", len(files), files)
	}
	recs := logRecords(t, fsys, files[0])
	for i, m := range recs {
		if (i == 0) != (m.op == opRotate) || i > 0 && m.op != opCreateTable || m.more == (i == len(recs)-1) {
			t.Fatalf("%s record %d is op %d on %q (more %v) after a checkpoint, want one group of the schema alone", files[0], i, m.op, m.table, m.more)
		}
	}
}

func TestFileEngineBasicPersistence(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	for i := 0; i < 50; i++ {
		if _, err := fe.Insert("person", Row{Int(int64(i)), Str(fmt.Sprintf("p%d", i)), Int(int64(i * 2)), Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, ok := fe2.Table("person")
	if !ok {
		t.Fatal("table missing after reopen")
	}
	if tab.Len() != 50 {
		t.Fatalf("Len = %d after reopen, want 50", tab.Len())
	}
	row, _, ok := tab.GetByPK(Int(25))
	if !ok || row[1].Text() != "p25" {
		t.Errorf("row 25 = %v ok=%v", row, ok)
	}
	// Secondary index must be rebuilt too.
	count := 0
	if err := Visit(tab, "person_by_name", []Value{Str("p7")}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("index after reopen found %d, want 1", count)
	}
}

// TestFileEngineUpdateDeletePersist: an update — a transaction that
// deletes a row and inserts its new image under the same key — and a
// delete survive a reopen.
func TestFileEngineUpdateDeletePersist(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	id1, _ := fe.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	id2, _ := fe.Insert("person", Row{Int(2), Str("b"), Null(), Null()})
	tx := fe.Begin()
	if err := tx.Delete("person", id1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("person", Row{Int(1), Str("a2"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := fe.Delete("person", id2); err != nil {
		t.Fatal(err)
	}
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	row, _, _ := tab.GetByPK(Int(1))
	if row[1].Text() != "a2" {
		t.Errorf("update lost: %v", row)
	}
}

// TestFileEngineReplayRefusesRowsItHolds: replay starts where the
// manifest's segments end, so a logged insert of a row ID the table
// already holds — in a segment or in its tail — or a delete of a row it
// does not hold fails the open with ErrCorruptLog.
func TestFileEngineReplayRefusesRowsItHolds(t *testing.T) {
	held := &ColumnBlock{}
	held.reset(personSchema(), 1)
	held.appendRow(1, Row{Int(1), Str("a2"), Null(), Null()})
	for _, c := range []struct {
		name      string
		compacted bool
		m         *mutation
	}{
		{"insert of a row a segment holds", true, &mutation{op: opInsertBlock, table: "person", block: held}},
		{"insert of a row the tail holds", false, &mutation{op: opInsertBlock, table: "person", block: held}},
		{"delete of a row the table lacks", false, &mutation{op: opDelete, table: "person", id: 99}},
	} {
		fsys := newMemFS()
		db := openTestEngineOn(t, fsys, "db")
		mustCreate(t, db, personSchema())
		if _, err := db.Insert("person", Row{Int(1), Str("a"), Null(), Null()}); err != nil {
			t.Fatal(err)
		}
		if c.compacted {
			if err := db.CompactSegments(); err != nil {
				t.Fatal(err)
			}
		}
		logGroup(t, db, c.m)
		db.Close()
		if _, err := open(fsys, KindMem, "db"); !errors.Is(err, ErrCorruptLog) {
			t.Errorf("%s: the open returned %v, want ErrCorruptLog", c.name, err)
		}
	}
}

func TestFileEngineCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	for i := 0; i < 100; i++ {
		fe.Insert("person", Row{Int(int64(i)), Str("x"), Null(), Null()})
	}
	if err := fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logHoldsSchemaOnly(t, osFS{}, dir)
	if _, err := os.Stat(filepath.Join(dir, "perftrack.snap")); !os.IsNotExist(err) {
		t.Errorf("a checkpoint wrote perftrack.snap (%v)", err)
	}
	// Writes after the checkpoint land in the log and survive reopen.
	fe.Insert("person", Row{Int(1000), Str("post"), Null(), Null()})
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.Len() != 101 {
		t.Fatalf("Len = %d, want 101", tab.Len())
	}
	if _, _, ok := tab.GetByPK(Int(1000)); !ok {
		t.Error("post-checkpoint row missing")
	}
}

func TestFileEngineAutoIDSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	id1, _ := fe.Insert("person", Row{Null(), Str("a"), Null(), Null()})
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	id2, err := fe2.Insert("person", Row{Null(), Str("b"), Null(), Null()})
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id1 {
		t.Errorf("auto ID reused after reopen: %d then %d", id1, id2)
	}
}

func TestFileEngineTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	for i := 0; i < 10; i++ {
		fe.Insert("person", Row{Int(int64(i)), Str("x"), Null(), Null()})
	}
	fe.Close()

	// Corrupt the log by appending a torn record.
	walPath := logFiles(t, osFS{}, dir)[0]
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0x12, 0x34}) // bogus header + partial payload
	f.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.Len() != 10 {
		t.Fatalf("Len = %d after torn-tail recovery, want 10", tab.Len())
	}
	// The engine must still accept writes after recovery.
	if _, err := fe2.Insert("person", Row{Int(100), Str("new"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
}

func TestFileEngineCorruptMiddleDetected(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	fe.Insert("person", Row{Int(1), Str("abcdefghij"), Null(), Null()})
	fe.Insert("person", Row{Int(2), Str("klmnopqrst"), Null(), Null()})
	fe.Close()

	// Flip a byte in the middle of the log (inside the first insert record,
	// past the CREATE TABLE record).
	walPath := logFiles(t, osFS{}, dir)[0]
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	// Recovery treats the corruption as a torn tail: everything after the
	// last valid record is dropped, but the open must succeed.
	fe2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("recovery failed outright: %v", err)
	}
	defer fe2.Close()
	tab, ok := fe2.Table("person")
	if ok && tab.Len() > 2 {
		t.Errorf("corrupt recovery produced %d rows", tab.Len())
	}
}

// TestFileEngineCheckpointSurvivesWALLoss: a checkpoint leaves its rows
// in segments and the schema in the log's first group, so a store that
// loses every later record of its log still holds them.
func TestFileEngineCheckpointSurvivesWALLoss(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	for i := 0; i < 30; i++ {
		fe.Insert("person", Row{Int(int64(i)), Str("x"), Null(), Null()})
	}
	fe.Checkpoint()
	fe.Insert("person", Row{Int(100), Str("after"), Null(), Null()})
	fe.Close()
	logs := logFiles(t, osFS{}, dir)
	if len(logs) != 1 {
		t.Fatalf("%d log files, want 1", len(logs))
	}
	ends := groupEnds(t, osFS{}, logs[0])
	if len(ends) != 2 {
		t.Fatalf("the log holds %d groups, want the checkpoint's and the row inserted after it", len(ends))
	}
	if err := os.Truncate(logs[0], ends[0]); err != nil {
		t.Fatal(err)
	}

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.Len() != 30 {
		t.Fatalf("Len = %d from segments alone, want 30", tab.Len())
	}
}

func TestFileEngineDiskSize(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	defer fe.Close()
	mustCreate(t, fe, personSchema())
	size0, err := fe.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fe.Insert("person", Row{Int(int64(i)), Str("some payload string"), Null(), Null()})
	}
	size1, err := fe.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	if size1 <= size0 {
		t.Errorf("DiskSize did not grow: %d -> %d", size0, size1)
	}
}

func TestFileEngineSyncMode(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	defer fe.Close()
	fe.SetSync(true)
	mustCreate(t, fe, personSchema())
	if _, err := fe.Insert("person", Row{Int(1), Str("x"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
}

func TestFileEngineTxRollbackPersists(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	fe.Insert("person", Row{Int(1), Str("keep"), Null(), Null()})
	tx := fe.Begin()
	tx.Insert("person", Row{Int(2), Str("discard"), Null(), Null()})
	tx.Rollback()
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after replaying rollback, want 1", tab.Len())
	}
	if _, _, ok := tab.GetByPK(Int(2)); ok {
		t.Error("rolled-back row reappeared after recovery")
	}
}

func TestFileEngineCreateIndexPersists(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	fe.Insert("person", Row{Int(1), Str("a"), Int(30), Null()})
	if err := fe.CreateIndex("person", IndexSpec{Name: "person_by_age", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if !tab.HasIndex("person_by_age") {
		t.Fatal("index lost after reopen")
	}
	count := 0
	if err := Visit(tab, "person_by_age", []Value{Int(30)}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("index scan found %d, want 1", count)
	}
}

func TestWALMutationRoundTrip(t *testing.T) {
	muts := []*mutation{
		{op: opCreateTable, schema: personSchema(), more: true},
		{op: opRotate, seq: 3, size: 1 << 40},
		{op: opCreateIndex, table: "person", index: IndexSpec{Name: "i", Columns: []string{"name"}, Unique: true}},
		{op: opDropIndex, table: "person", index: IndexSpec{Name: "i"}},
		{op: opDelete, table: "person", id: 7},
	}
	for _, m := range muts {
		payload := encodeMutationPayload(m)
		got, err := decodeMutationPayload(payload)
		if err != nil {
			t.Fatalf("decode op %d: %v", m.op, err)
		}
		if got.op != m.op || got.table != m.table && m.op != opCreateTable || got.id != m.id || got.more != m.more || got.seq != m.seq || got.size != m.size {
			t.Errorf("round trip op %d: got %+v", m.op, got)
		}
		if m.schema != nil && got.schema.Name != m.schema.Name {
			t.Errorf("schema name mismatch")
		}
		if m.op == opCreateIndex && (got.index.Name != m.index.Name || !got.index.Unique) {
			t.Errorf("index spec mismatch: %+v", got.index)
		}
	}
}

func TestDecodeMutationMalformed(t *testing.T) {
	if _, err := decodeMutationPayload(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := decodeMutationPayload([]byte{0x63}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := decodeMutationPayload([]byte{byte(opDelete), 0x05}); err == nil {
		t.Error("truncated delete accepted")
	}
}
