package reldb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openTestEngine(t *testing.T, dir string) *DB { return openTestEngineOn(t, osFS{}, dir) }

// replayUpdate applies an update the way recovery replays one: nothing
// running makes an update any more, but a log written before can hold it.
func replayUpdate(db *DB, table string, id int64, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tables[table].updateLocked(id, row)
}

// logRecord appends a record to the engine's logs without applying it —
// a row's to its table's tail log, DDL to perftrack.wal: what an older
// program left in the log for replay.
func logRecord(t *testing.T, fe *DB, m *mutation) {
	t.Helper()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if !m.isRowOp() {
		if err := fe.logLocked(m); err != nil {
			t.Fatal(err)
		}
		return
	}
	l, err := fe.seg.tailLogLocked(fe.tables[m.table])
	if err == nil {
		l.append(encodeMutationPayload(m))
		err = l.flush()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// walHoldsSchemaOnly fails unless perftrack.wal is what a checkpoint
// leaves: a CREATE TABLE record per table, nothing else.
func walHoldsSchemaOnly(t *testing.T, fsys FS, dir string) {
	t.Helper()
	for _, m := range logRecords(t, fsys, filepath.Join(dir, walFile)) {
		if m.op != opCreateTable {
			t.Fatalf("perftrack.wal holds op %d on %q after a checkpoint, want the schema alone", m.op, m.table)
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
	if err := tab.IndexScan("person_by_name", []Value{Str("p7")}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("index after reopen found %d, want 1", count)
	}
}

func TestFileEngineUpdateDeletePersist(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	id1, _ := fe.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	id2, _ := fe.Insert("person", Row{Int(2), Str("b"), Null(), Null()})
	// An update record, as a program from before updates went left one.
	logRecord(t, fe, &mutation{op: opUpdate, table: "person", id: id1, row: Row{Int(1), Str("a2"), Null(), Null()}})
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
	walHoldsSchemaOnly(t, osFS{}, dir)
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Errorf("a checkpoint wrote %s (%v)", snapshotFile, err)
	}
	// Writes after the checkpoint land in a tail log and survive reopen.
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

	// Corrupt the WAL by appending a torn record.
	walPath := filepath.Join(dir, walFile)
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

	// Flip a byte in the middle of the WAL (inside the first insert record,
	// past the CREATE TABLE record).
	walPath := filepath.Join(dir, walFile)
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
	// Simulate losing the tail logs, which hold only what came after the
	// checkpoint.
	logs, _ := filepath.Glob(filepath.Join(dir, segmentSubdir, "tail-*.log"))
	if len(logs) == 0 {
		t.Fatal("the row inserted after the checkpoint is in no tail log")
	}
	for _, l := range logs {
		os.Remove(l)
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
	if err := tab.IndexScan("person_by_age", []Value{Int(30)}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("index scan found %d, want 1", count)
	}
}

func TestFileEngineDropTablePersists(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	if _, err := fe.Insert("person", Row{Int(1), Str("a"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	// A DROP TABLE record, as a program from before DROP TABLE went left one.
	logRecord(t, fe, &mutation{op: opDropTable, table: "person"})
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	if _, ok := fe2.Table("person"); ok {
		t.Error("dropped table reappeared")
	}
}

func TestWALMutationRoundTrip(t *testing.T) {
	muts := []*mutation{
		{op: opCreateTable, schema: personSchema()},
		{op: opDropTable, table: "person"},
		{op: opCreateIndex, table: "person", index: IndexSpec{Name: "i", Columns: []string{"name"}, Unique: true}},
		{op: opInsert, table: "person", id: 7, row: Row{Int(7), Str("x"), Null(), Float(1.5)}},
		{op: opUpdate, table: "person", id: 7, row: Row{Int(7), Str("y"), Int(3), Null()}},
		{op: opDelete, table: "person", id: 7},
	}
	for _, m := range muts {
		payload := encodeMutationPayload(m)
		got, err := decodeMutationPayload(payload)
		if err != nil {
			t.Fatalf("decode op %d: %v", m.op, err)
		}
		if got.op != m.op || got.table != m.table || got.id != m.id {
			t.Errorf("round trip op %d: got %+v", m.op, got)
		}
		if m.row != nil {
			if len(got.row) != len(m.row) {
				t.Fatalf("row arity mismatch for op %d", m.op)
			}
			for i := range m.row {
				if Compare(got.row[i], m.row[i]) != 0 {
					t.Errorf("op %d row[%d]: got %v want %v", m.op, i, got.row[i], m.row[i])
				}
			}
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
	if _, err := decodeMutationPayload([]byte{byte(opInsert), 0x05}); err == nil {
		t.Error("truncated insert accepted")
	}
}
