package reldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// ErrTxDone is returned by operations on a committed or rolled-back
// transaction.
var ErrTxDone = errors.New("reldb: transaction already finished")

// Tx is a database transaction. It writes in one of two ways.
//
// A change to a row set is applied to the database immediately (so the
// transaction reads it back through the normal table handles) and
// recorded in an undo log; Rollback applies the inverse operations in
// reverse order, and those are themselves logged as compensation records,
// so a WAL replay reconstructs the post-rollback state.
//
// An insert into a table whose tail is columnar (a durable engine's
// sealable hot table) is checked against the schema, given its row ID
// and laid out in a column block private to the transaction, under no
// lock. Commit encodes the blocks' log records, then takes the engine
// write lock once and admits, logs and appends them all: other readers
// see none of the transaction's hot rows or all of them. Rollback drops
// the blocks, and nothing was logged. The price is that the transaction
// does not read those rows back before Commit, and that Commit can fail —
// a duplicate key or a dangling foreign key among them is found there —
// in which case nothing of the blocks is installed and the transaction
// stays open for Rollback.
//
// reldb serializes writers, so transactions are serializable by
// construction.
type Tx struct {
	db   *DB
	undo []undoEntry
	priv map[string]*txBlock // by table: its private block, or nil for a table written in place
	done bool
}

// undoEntry is what reverting one applied mutation takes.
type undoEntry struct {
	op    mutOp
	table string
	id    int64
	old   Row // opUpdate/opDelete: previous image
}

// txBlock holds the rows a transaction has inserted into one table with
// a columnar tail, in arrival order, until Commit.
type txBlock struct {
	t *Table
	ColumnBlock
	keyAsc bool   // the table has one integer key column and its values here ascend
	recs   []byte // the rows' insert records, framed as a log holds them; nil until Commit
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db}
}

// block returns the transaction's private block for the table, nil when
// the table is written in place.
func (tx *Tx) block(table string) (*txBlock, error) {
	if tx.db.seg == nil {
		return nil, nil // only a durable engine has columnar tails
	}
	tb, known := tx.priv[table]
	if known {
		return tb, nil
	}
	tx.db.mu.RLock()
	t := tx.db.tables[table]
	columnar := t != nil && t.tail != nil
	tx.db.mu.RUnlock()
	if columnar {
		tb = &txBlock{t: t, keyAsc: len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Type == KindInt}
		if err := tb.reset(t.schema, 0); err != nil {
			return nil, err
		}
	}
	if tx.priv == nil {
		tx.priv = make(map[string]*txBlock)
	}
	tx.priv[table] = tb
	return tb, nil
}

// Insert adds a row within the transaction.
func (tx *Tx) Insert(table string, row Row) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	tb, err := tx.block(table)
	if err != nil {
		return 0, err
	}
	if tb != nil {
		return tb.add(row)
	}
	tx.db.mu.Lock()
	id, err := tx.db.insertLocked(table, row, tx)
	tx.db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	tx.undo = append(tx.undo, undoEntry{op: opInsert, table: table, id: id})
	return id, nil
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
	id, _ := t.reserveID(row)
	for ci, v := range row {
		if auto && ci == t.pkCols[0] {
			v = Int(id)
		}
		tb.cols[ci].push(v, tb.rows)
	}
	if keys := tb.cols[t.pkCols[0]].ints; tb.keyAsc && tb.rows > 0 {
		tb.keyAsc = keys[tb.rows] > keys[tb.rows-1]
	}
	tb.rowIDs = append(tb.rowIDs, id)
	tb.rows++
	tb.recs = nil
	return id, nil
}

// holds reports whether a row private to the transaction has v in the
// named column of table t. A nil transaction holds nothing.
func (tx *Tx) holds(t *Table, column string, v Value) bool {
	if tx == nil {
		return false
	}
	tb := tx.priv[t.schema.Name]
	if tb == nil || tb.t != t || tb.rows == 0 {
		return false
	}
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return false
	}
	// Assigned keys ascend: the usual reference, a result's ID, is found
	// by bisection.
	if tb.keyAsc && ci == t.pkCols[0] {
		_, found := slices.BinarySearch(tb.cols[ci].ints, v.i)
		return found && v.kind == KindInt
	}
	for i := 0; i < tb.rows; i++ {
		if Equal(tb.cell(ci, i), v) {
			return true
		}
	}
	return false
}

// installFor installs the private blocks, keeping them undoable, if one
// of them holds row id of table: an update or delete can only name a row
// that is in the table.
func (tx *Tx) installFor(table string, id int64) error {
	if tb := tx.priv[table]; tb == nil || !slices.Contains(tb.rowIDs, id) {
		return nil
	}
	return tx.install(true)
}

// Update replaces a row within the transaction.
func (tx *Tx) Update(table string, id int64, row Row) error {
	if tx.done {
		return ErrTxDone
	}
	if err := tx.installFor(table, id); err != nil {
		return err
	}
	tx.db.mu.Lock()
	old, err := tx.db.updateLocked(table, id, row, tx)
	tx.db.mu.Unlock()
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoEntry{op: opUpdate, table: table, id: id, old: old})
	return nil
}

// Delete removes a row within the transaction.
func (tx *Tx) Delete(table string, id int64) error {
	if tx.done {
		return ErrTxDone
	}
	if err := tx.installFor(table, id); err != nil {
		return err
	}
	tx.db.mu.Lock()
	old, err := tx.db.deleteLocked(table, id)
	tx.db.mu.Unlock()
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoEntry{op: opDelete, table: table, id: id, old: old})
	return nil
}

// Commit finalizes the transaction: its private blocks are installed
// under one hold of the engine write lock. If that fails, nothing of
// them is visible or logged and the transaction is still open.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	if err := tx.install(false); err != nil {
		return err
	}
	tx.done = true
	tx.undo = nil
	return nil
}

// install moves the transaction's private rows into their tables, table
// by table in the order their logs are flushed. With undoable set each
// row gets an undo entry, as if it had been inserted in place.
func (tx *Tx) install(undoable bool) error {
	var blocks []*txBlock
	for _, name := range logFlushOrder {
		if tb := tx.priv[name]; tb != nil && tb.rows > 0 {
			if tb.recs == nil {
				tb.finish()
				tb.recs = encodeInsertRecords(name, &tb.ColumnBlock)
			}
			blocks = append(blocks, tb)
		}
	}
	if len(blocks) == 0 {
		return nil
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	fe := tx.db.seg.fe
	bulk, err := fe.admitBlocksLocked(tx, blocks)
	if err == nil && bulk {
		err = fe.appendBlocksLocked(blocks)
	}
	if err != nil {
		return err
	}
	for _, tb := range blocks {
		for i, id := range tb.rowIDs {
			if !bulk {
				// One by one, the way a row set takes them: the table rehydrates
				// where it must. Each row is undoable as soon as it is in, so a
				// failure further on leaves nothing Rollback cannot remove.
				if err := tx.db.insertAtLoggedLocked(tb.t, id, tb.row(i), tx); err != nil {
					return err
				}
			}
			if undoable || !bulk {
				tx.undo = append(tx.undo, undoEntry{op: opInsert, table: tb.t.schema.Name, id: id})
			}
		}
	}
	tx.priv = nil // how each table is written is decided again at its next insert
	return nil
}

// insertAtLoggedLocked inserts a transaction's private row under the row
// ID it reserved, checked and logged like any insert.
func (db *DB) insertAtLoggedLocked(t *Table, id int64, row Row, priv *Tx) error {
	if db.tables[t.schema.Name] != t {
		return fmt.Errorf("reldb: table %q was dropped under a transaction", t.schema.Name)
	}
	if err := db.checkForeignKeys(t.schema, row, priv); err != nil {
		return err
	}
	return db.reinsertLocked(t.schema.Name, id, row)
}

// Rollback drops the transaction's private blocks and undoes every
// operation it applied in place, in reverse order.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.priv = nil
	if len(tx.undo) == 0 {
		return nil
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	var firstErr error
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		var err error
		switch u.op {
		case opInsert:
			_, err = tx.db.deleteLocked(u.table, u.id)
		case opUpdate:
			_, err = tx.db.updateLocked(u.table, u.id, u.old, nil)
		case opDelete:
			err = tx.db.reinsertLocked(u.table, u.id, u.old)
		default:
			err = fmt.Errorf("reldb: cannot undo op %d", u.op)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tx.undo = nil
	return firstErr
}

// reinsertLocked stores a row under a row ID it already owns: a deleted
// row restored, a transaction's private row installed.
func (db *DB) reinsertLocked(table string, id int64, row Row) error {
	t, exists := db.tables[table]
	if !exists {
		return fmt.Errorf("reldb: no table %q", table)
	}
	stored, err := t.insertAtLocked(id, row)
	if err != nil {
		return err
	}
	if db.logger != nil {
		return db.logger.logMutation(&mutation{op: opInsert, table: table, id: id, row: stored})
	}
	return nil
}

// encodeInsertRecords returns the insert records of the block's rows,
// each framed as recordWriter frames it: the bytes logMutation would
// append for them one by one.
func encodeInsertRecords(table string, b *ColumnBlock) []byte {
	out := make([]byte, 0, b.rows*(16+len(table)+9*len(b.cols)))
	for i := 0; i < b.rows; i++ {
		start := len(out)
		out = append(out, 0, 0, 0, 0, 0, 0, 0, 0, byte(opInsert))
		out = putString(out, table)
		out = putVarint(out, b.rowIDs[i])
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

// --- admission (engine write lock held) ---

// admitBlocksLocked checks a transaction's private blocks against the
// published tables — each primary key unused, each foreign key matched,
// once per distinct value, by a published row or a private one — and
// reports whether they can be appended to their tables' tails as they
// are. They cannot when a table has lost its columnar tail since the
// block was begun, or a row ID or key is not above the frozen range: the
// rows then go in one by one, which checks them again.
func (fe *FileEngine) admitBlocksLocked(tx *Tx, blocks []*txBlock) (bulk bool, err error) {
	for _, tb := range blocks {
		t := tb.t
		if fe.tables[t.schema.Name] != t {
			return false, fmt.Errorf("reldb: table %q was dropped under a transaction", t.schema.Name)
		}
		if t.tail == nil || slices.Min(tb.rowIDs) <= t.frozenMaxID {
			return false, nil
		}
	}
	for _, tb := range blocks {
		if above, err := tb.admitKeysLocked(); err != nil || !above {
			return false, err
		}
		if err := fe.checkBlockForeignKeys(tx, tb); err != nil {
			return false, err
		}
	}
	return true, nil
}

// admitKeysLocked checks the block's primary keys against the table and
// each other. A block that ascends past the tail's greatest key — a
// document's — costs one comparison a row; only a row that does not is
// looked up. It reports whether every key is above the frozen range.
func (tb *txBlock) admitKeysLocked() (aboveFrozen bool, err error) {
	t, tail := tb.t, tb.t.tail
	b := &tb.ColumnBlock
	low, disordered := 0, false // position of the least key; whether any row is at or below an earlier one
	for i := 1; i < b.rows; i++ {
		if cmpRows(b, i, b, i-1, t.pkCols) <= 0 {
			disordered = true
		}
		if cmpRows(b, i, b, low, t.pkCols) < 0 {
			low = i
		}
	}
	if t.frozenMaxKey != nil && bytes.Compare(t.pkKey(b.row(low)), t.frozenMaxKey) <= 0 {
		return false, nil
	}
	vals := make([]Value, len(t.pkCols))
	for i := 0; i < b.rows && tail.rows > 0; i++ {
		if cmpRows(b, i, &tail.ColumnBlock, tail.top, t.pkCols) > 0 {
			if !disordered {
				break // and so is every later row
			}
			continue
		}
		for k, c := range t.pkCols {
			vals[k] = b.cell(c, i)
		}
		if _, exists := tail.findPK(t.pkCols, vals); exists {
			return false, fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, b.row(i))
		}
	}
	if disordered {
		perm := b.sortedRun(t.pkCols, 0, b.rows)
		for k := 1; k < len(perm); k++ {
			if cmpRows(b, int(perm[k]), b, int(perm[k-1]), t.pkCols) == 0 {
				return false, fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, b.row(int(perm[k])))
			}
		}
	}
	return true, nil
}

// checkBlockForeignKeys probes each foreign key of the block's table once
// per distinct value the block holds.
func (fe *FileEngine) checkBlockForeignKeys(tx *Tx, tb *txBlock) error {
	schema := tb.t.schema
	for _, fk := range schema.ForeignKeys {
		ref, ok := fe.tables[fk.RefTable]
		if !ok {
			return fmt.Errorf("reldb: table %q: foreign key references missing table %q", schema.Name, fk.RefTable)
		}
		probe := func(v Value) error {
			if !tx.holds(ref, fk.RefColumn, v) && !ref.containsValueLocked(fk.RefColumn, v) {
				return fkError(schema, fk, v)
			}
			return nil
		}
		ci := schema.ColumnIndex(fk.Column)
		if c := &tb.cols[ci]; c.kind == KindInt && c.nulls == nil { // every reference the PerfTrack schema makes
			seen := make(map[int64]struct{})
			for i, v := range c.ints {
				if i > 0 && v == c.ints[i-1] {
					continue
				}
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					if err := probe(Int(v)); err != nil {
						return err
					}
				}
			}
			continue
		}
		seen := make(map[Value]struct{})
		for i := 0; i < tb.rows; i++ {
			v := tb.cell(ci, i)
			if _, dup := seen[v]; !dup && !v.IsNull() {
				seen[v] = struct{}{}
				if err := probe(v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// appendBlocksLocked makes admitted blocks part of their tables: every
// block's records go to its table's tail log first, in flush order, and
// only then are the columns appended — a reader never sees a row whose
// record is not at least in a log's buffer, and a failed append leaves
// every tail as it was. Outside a write batch this is a batch boundary.
func (fe *FileEngine) appendBlocksLocked(blocks []*txBlock) error {
	logs := make([]*logFile, len(blocks))
	for i, tb := range blocks {
		var err error
		if logs[i], err = fe.seg.tailLogLocked(tb.t); err != nil {
			return err
		}
	}
	for i, tb := range blocks {
		if err := logs[i].appendFramed(tb.recs); err != nil {
			return err
		}
		fe.logAppended += uint64(len(tb.recs))
	}
	if fe.syncWAL && fe.batchDepth == 0 {
		for _, l := range logs {
			if err := l.sync(); err != nil {
				return err
			}
		}
	}
	for _, tb := range blocks {
		tb.t.tail.tailAppendBlock(tb.t.pkCols, &tb.ColumnBlock)
	}
	if fe.batchDepth == 0 {
		fe.seg.sealReadyLocked(fe.seg.flushRows.Load())
	}
	return nil
}
