package reldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// ErrTxDone is returned by operations on a committed or rolled-back
// transaction.
var ErrTxDone = errors.New("reldb: transaction already finished")

// Tx is a database transaction, and the engine's only way in for a row
// and out for one. An insert, into any table, is checked against the
// schema, given its row ID and laid out in a column block private to the
// transaction, under no lock; a delete is noted there. Nobody — the
// transaction included — reads a change of it before Commit.
//
// Commit is the only time a transaction touches the engine. It takes the
// engine write lock once (after the compaction lock, if it deletes: no
// pass then writes a block it replaces) and admits every block against
// the published tables: each row to delete is there, the inserts' primary
// keys are unused there (deletes aside) and in the block, each foreign
// key is matched by a published row or one of the transaction's own. It
// then logs the records, applies the deletes by replacing blocks
// (Table.replaceLocked) and appends the rows to the table's columnar
// tail.
// Readers see all of a transaction's changes or none. The commit is also
// the batch boundary: each log it touched is flushed once (fsynced in
// synchronous mode), and tails that reached the flush threshold are
// sealed. A Commit that fails changes nothing visible, leaves no record
// in any log and leaves the transaction open; Rollback writes nothing.
//
// Committers serialize on the engine lock and a transaction reads nothing,
// so transactions are serializable in commit order.
type Tx struct {
	db     *DB
	blocks []*txBlock // one per table, in the order the tables were first written
	done   bool
}

// txBlock holds the rows a transaction has inserted into one table, in
// arrival order, and the row IDs it deletes there, until Commit. Blocks
// are pooled per table: a commit copies what it keeps, so a finished
// transaction's blocks are reused.
type txBlock struct {
	t *Table
	ColumnBlock
	keyAsc   bool    // the table has one integer key column and its values here ascend
	dels     []int64 // row IDs to delete; ascending and distinct once the commit has begun
	recs     []byte  // the delete and insert records, framed as a log holds them
	placed   bool    // ordered has placed the block
	reserved bool    // counted in the table's reserving
}

// release stops counting the block's reserved row IDs against a seal.
func (tb *txBlock) release() {
	if tb.reserved {
		tb.reserved = false
		tb.t.reserving.Add(-1)
	}
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db}
}

// find returns the transaction's block for the table, or nil.
func (tx *Tx) find(table string) *txBlock {
	for _, tb := range tx.blocks {
		if tb.t.schema.Name == table {
			return tb
		}
	}
	return nil
}

// block returns the transaction's private block for the table.
func (tx *Tx) block(table string) (*txBlock, error) {
	if tb := tx.find(table); tb != nil {
		return tb, nil
	}
	tx.db.mu.RLock()
	t := tx.db.tables[table]
	tx.db.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("reldb: no table %q", table)
	}
	tb, _ := t.txBlocks.Get().(*txBlock)
	if tb == nil {
		tb = &txBlock{t: t}
	}
	tb.keyAsc = len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Type == KindInt
	tb.dels = tb.dels[:0]
	if err := tb.reset(t.schema, 0); err != nil {
		return nil, err
	}
	tx.blocks = append(tx.blocks, tb)
	return tb, nil
}

// finish ends the transaction and hands its blocks back to their tables'
// pools.
func (tx *Tx) finish() {
	for _, tb := range tx.blocks {
		tb.release()
		tb.t.txBlocks.Put(tb)
	}
	tx.done, tx.blocks = true, nil
}

// Insert adds a row within the transaction and returns its row ID, which
// equals the primary key when the table assigns it: a NULL in a
// single-column integer key.
func (tx *Tx) Insert(table string, row Row) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tb, err := tx.block(table)
	if err != nil {
		return 0, err
	}
	return tb.add(row)
}

// Delete removes the row with the given ID within the transaction; Commit
// fails if the table does not hold it then. Deleting a row twice deletes
// it once.
func (tx *Tx) Delete(table string, id int64) error {
	if tx.done {
		return ErrTxDone
	}
	tb, err := tx.block(table)
	if err != nil {
		return err
	}
	tb.dels = append(tb.dels, id)
	return nil
}

// add checks a row against the schema, reserves its row ID (and with it
// an assigned primary key) and appends it to the block. It takes no lock.
func (tb *txBlock) add(row Row) (int64, error) {
	t := tb.t
	if len(row) != len(t.schema.Columns) {
		return 0, t.schema.CheckRow(row)
	}
	auto := t.autoKey(row)
	for ci, v := range row {
		if auto && ci == t.pkCols[0] {
			continue
		}
		if _, err := t.schema.checkValue(ci, v); err != nil {
			return 0, err
		}
	}
	if !tb.reserved { // before the reservation: a seal that misses it precedes it
		tb.reserved = true
		t.reserving.Add(1)
	}
	id := t.reserveID(row)
	for ci, v := range row {
		if auto && ci == t.pkCols[0] {
			v = Int(id)
		}
		tb.cols[ci].push(v, tb.rows)
	}
	if keys := tb.cols[t.pkCols[0]].ints.i64; tb.keyAsc && tb.rows > 0 { // a transaction's block is at width 8
		tb.keyAsc = keys[tb.rows] > keys[tb.rows-1]
	}
	tb.rowIDs.push(id)
	tb.rows++
	return id, nil
}

// holds reports whether a row private to the transaction has v in the
// named column of table t.
func (tx *Tx) holds(t *Table, column string, v Value) bool {
	tb := tx.find(t.schema.Name)
	if tb == nil || tb.t != t || tb.rows == 0 {
		return false
	}
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return false
	}
	// Assigned keys ascend: the usual reference, a parent's ID, is found
	// by bisection.
	if tb.keyAsc && ci == t.pkCols[0] {
		_, found := slices.BinarySearch(tb.cols[ci].ints.i64, v.i)
		return found && v.kind == KindInt
	}
	for i := 0; i < tb.rows; i++ {
		if Equal(tb.cell(ci, i), v) {
			return true
		}
	}
	return false
}

// Commit publishes the transaction's rows under one hold of the engine
// write lock. If that fails, nothing of them is visible or logged and the
// transaction is still open.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if blocks := tx.ordered(); len(blocks) > 0 {
		if err := tx.db.commit(tx, blocks); err != nil {
			return err
		}
	}
	tx.finish()
	return nil
}

// Rollback drops the transaction's private blocks. The engine never saw
// them, so nothing is undone and nothing is logged.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.finish()
	return nil
}

// ordered returns the transaction's non-empty blocks in the order their
// records are logged (rule 3): each after the ones its foreign keys name —
// and a transaction that only deletes the other way round, children
// before parents.
func (tx *Tx) ordered() []*txBlock {
	out := make([]*txBlock, 0, len(tx.blocks))
	inserts := false
	for _, tb := range tx.blocks {
		tb.placed = false
		inserts = inserts || tb.rows > 0
	}
	for _, tb := range tx.blocks {
		out = tx.place(tb, out)
	}
	if !inserts {
		slices.Reverse(out)
	}
	return out
}

func (tb *txBlock) empty() bool { return tb.rows == 0 && len(tb.dels) == 0 }

// place appends tb to out after the blocks of the tables it refers to.
func (tx *Tx) place(tb *txBlock, out []*txBlock) []*txBlock {
	if tb.placed {
		return out
	}
	tb.placed = true
	for _, fk := range tb.t.schema.ForeignKeys {
		if ref := tx.find(fk.RefTable); ref != nil {
			out = tx.place(ref, out)
		}
	}
	if !tb.empty() {
		out = append(out, tb)
	}
	return out
}

// commit finishes the blocks outside the lock — their zone maps and their
// log records — then admits, logs and applies them under it. A commit
// that leaves a tail full behind a sealed one waits, outside the lock,
// for the compaction pass in flight (segState.awaitPass).
func (db *DB) commit(tx *Tx, blocks []*txBlock) error {
	deletes := false
	for _, tb := range blocks {
		tb.finish()
		slices.Sort(tb.dels)
		tb.dels = slices.Compact(tb.dels)
		tb.recs = tb.recs[:0]
		for _, id := range tb.dels {
			tb.recs = appendRecord(tb.recs, encodeMutationPayload(&mutation{op: opDelete, table: tb.t.schema.Name, id: id}))
		}
		tb.recs = appendInsertRecords(tb.recs, tb.t.schema.Name, &tb.ColumnBlock)
		deletes = deletes || len(tb.dels) > 0
	}
	if deletes {
		db.seg.compactMu.Lock()
	}
	full, err := db.commitLocked(tx, blocks)
	if deletes {
		db.seg.compactMu.Unlock()
	}
	if full {
		// The commit is in the logs whatever becomes of the pass; one that
		// fails is retried at the next commit.
		_ = db.seg.awaitPass()
	}
	return err
}

func (db *DB) commitLocked(tx *Tx, blocks []*txBlock) (full bool, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writableLocked(); err != nil {
		return false, err
	}
	for _, tb := range blocks {
		if err := tb.admitLocked(tx); err != nil {
			return false, err
		}
	}
	if err := db.logBlocksLocked(blocks); err != nil {
		return false, err
	}
	for _, tb := range blocks {
		if len(tb.dels) > 0 {
			tb.t.deleteLocked(tb.dels)
		}
		tb.t.tail.tailAppendBlock(tb.t.pkCols, &tb.ColumnBlock)
		tb.release() // its rows are in: they no longer hold back a seal
	}
	return db.seg.sealReadyLocked(db.seg.flushRows.Load()), nil
}

// appendInsertRecords appends the insert records of the block's rows to
// out, each framed as appendRecord frames it: the bytes logLocked would
// append for them one by one.
func appendInsertRecords(out []byte, table string, b *ColumnBlock) []byte {
	out = slices.Grow(out, b.rows*(16+len(table)+9*len(b.cols)))
	for i := 0; i < b.rows; i++ {
		start := len(out)
		out = append(out, 0, 0, 0, 0, 0, 0, 0, 0, byte(opInsert))
		out = putString(out, table)
		out = putVarint(out, b.rowIDs.At(i))
		out = putUvarint(out, uint64(len(b.cols)))
		for ci := range b.cols {
			out = appendValuePayload(out, b.cell(ci, i))
		}
		payload := out[start+8:]
		binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(out[start+4:], crc32.ChecksumIEEE(payload))
	}
	return out
}

// logBlocksLocked appends the blocks' records to their tables' tail logs
// and flushes each log once its records are in, fsyncing it in
// synchronous mode: in the blocks' order, which is the flush order (rule
// 3). Every log is opened before anything is written, and the DDL records
// left in perftrack.wal's buffer reach its file first. If a write or
// fsync fails, every log the commit wrote to is taken back to where it
// stood (rewindLocked): a failed commit leaves no record.
func (db *DB) logBlocksLocked(blocks []*txBlock) error {
	logs := make([]*logFile, len(blocks))
	for i, tb := range blocks {
		var err error
		if logs[i], err = db.seg.tailLogLocked(tb.t); err != nil {
			return db.refuseLocked(err)
		}
	}
	for _, l := range db.openLogsLocked() {
		if err := l.flush(); err != nil {
			return err
		}
	}
	flush := (*logFile).flush
	if db.syncWAL {
		flush = (*logFile).sync
	}
	marks := make([]logMark, 0, len(blocks))
	for i, tb := range blocks {
		marks = append(marks, logMark{logs[i], logs[i].size})
		logs[i].appendFramed(tb.recs)
		if err := flush(logs[i]); err != nil {
			return db.rewindLocked(err, marks)
		}
		db.seg.stepped("commit flush")
	}
	for _, m := range marks {
		db.logAppended += uint64(m.l.size - m.size)
	}
	return nil
}

// --- admission (engine write lock held) ---

// admitLocked checks the block against the published table: it is still
// the table the block was begun on, every row it deletes is there, no
// primary key of its inserts is taken there or twice in the block, and
// every foreign key is matched.
func (tb *txBlock) admitLocked(tx *Tx) error {
	t := tb.t
	if t.db.tables[t.schema.Name] != t {
		return fmt.Errorf("reldb: table %q was dropped under a transaction", t.schema.Name)
	}
	for _, id := range tb.dels {
		if _, ok := t.findIDLocked(id); !ok {
			return fmt.Errorf("reldb: table %q: no row %d", t.schema.Name, id)
		}
	}
	if err := tb.admitKeysLocked(); err != nil {
		return err
	}
	return t.db.checkBlockForeignKeys(tx, tb)
}

// admitKeysLocked checks the block's primary keys against the table and
// each other. A row above every key the blocks hold — each row of a
// document — costs one comparison; any other is looked up.
func (tb *txBlock) admitKeysLocked() error {
	t, b := tb.t, &tb.ColumnBlock
	dup := func(i int) error {
		return fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, b.row(i))
	}
	for i := 1; i < b.rows; i++ {
		if cmpRows(b, i, b, i-1, t.pkCols) <= 0 { // disordered: sort to find a repeat
			perm := b.sortedRun(t.pkCols, 0, b.rows)
			for k := 1; k < len(perm); k++ {
				if cmpRows(b, int(perm[k]), b, int(perm[k-1]), t.pkCols) == 0 {
					return dup(int(perm[k]))
				}
			}
			break
		}
	}
	var top *segment // the block holding the table's greatest key
	for _, s := range t.blocks {
		if s.rows > 0 && (top == nil || cmpRows(&s.ColumnBlock, s.top, &top.ColumnBlock, top.top, t.pkCols) > 0) {
			top = s
		}
	}
	key := make([]Value, len(t.pkCols))
	for i := 0; i < b.rows; i++ {
		if top == nil || cmpRows(b, i, &top.ColumnBlock, top.top, t.pkCols) > 0 {
			continue
		}
		for k, c := range t.pkCols {
			key[k] = b.cell(c, i)
		}
		if _, exists := t.findPKLocked(key); exists {
			return dup(i)
		}
	}
	return nil
}

// checkBlockForeignKeys probes each foreign key of the block's table once
// per distinct value the block holds, against the published rows and the
// transaction's own.
func (db *DB) checkBlockForeignKeys(tx *Tx, tb *txBlock) error {
	schema := tb.t.schema
	for _, fk := range schema.ForeignKeys {
		ref, ok := db.tables[fk.RefTable]
		if !ok {
			return fmt.Errorf("reldb: table %q: foreign key references missing table %q", schema.Name, fk.RefTable)
		}
		if err := tb.eachDistinct(schema.ColumnIndex(fk.Column), func(v Value) error {
			if !tx.holds(ref, fk.RefColumn, v) && !ref.containsValueLocked(fk.RefColumn, v) {
				return fkError(schema, fk, v)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// eachDistinct calls fn with each distinct non-NULL value of column ci,
// until fn fails. A repeat of the row before costs one comparison; a small
// block finds other repeats by a scan, a large one by a set.
func (b *ColumnBlock) eachDistinct(ci int, fn func(Value) error) error {
	const small = 8
	if c := &b.cols[ci]; c.kind == KindInt && c.nulls == nil { // nearly every reference the PerfTrack schema makes
		var seen map[int64]bool
		if b.rows > small {
			seen = make(map[int64]bool)
		}
		ints := c.ints.i64 // a transaction's block is at width 8
		for i, v := range ints {
			if i > 0 && v == ints[i-1] || seen[v] || seen == nil && slices.Contains(ints[:i], v) {
				continue
			}
			if seen != nil {
				seen[v] = true
			}
			if err := fn(Int(v)); err != nil {
				return err
			}
		}
		return nil
	}
	var seen map[Value]bool
	if b.rows > small {
		seen = make(map[Value]bool)
	}
	for i := 0; i < b.rows; i++ {
		v := b.cell(ci, i)
		repeat := v.IsNull() || seen[v]
		for j := 0; seen == nil && j < i && !repeat; j++ {
			repeat = Equal(b.cell(ci, j), v)
		}
		if repeat {
			continue
		}
		if seen != nil {
			seen[v] = true
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}
