package reldb

import (
	"errors"
	"fmt"
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
// then logs the records — per table a delete record per row it deletes
// and one block record of the rows it inserts, column-major — as one
// group, in one write (and one fsync in synchronous mode), applies the
// deletes by replacing blocks (Table.replaceLocked) and appends the rows
// to the table's columnar tail. Readers see all of a transaction's
// changes or none, and so does recovery. The commit is also the batch
// boundary: tails that reached the flush threshold are sealed. A Commit
// that fails changes nothing visible, leaves no record in the log and
// leaves the transaction open; Rollback writes nothing.
//
// Committers serialize on the engine lock and a transaction reads nothing,
// so transactions are serializable in commit order.
type Tx struct {
	db     *DB
	blocks []*txBlock // one per table, in the order the tables were first written
	last   *txBlock   // the block block returned last: rows mostly come in runs
	done   bool
}

// txBlock holds the rows a transaction has inserted into one table, in
// arrival order, and the row IDs it deletes there, until Commit. Blocks
// are pooled per table: a commit copies what it keeps, so a finished
// transaction's blocks are reused.
type txBlock struct {
	t *Table
	ColumnBlock
	keyAsc   bool    // the first key column is an integer and its values here strictly ascend
	dels     []int64 // row IDs to delete; ascending and distinct once the commit has begun
	recs     []byte  // the delete records and the block records, framed as the log holds them
	distinct []int64 // admission's scratch: one column's distinct values
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

// find returns the transaction's block for the table, or nil. It looks
// at the tables written first last: a document's results and their
// links go to tables its first result makes blocks for.
func (tx *Tx) find(table string) *txBlock {
	for i := len(tx.blocks) - 1; i >= 0; i-- {
		if tb := tx.blocks[i]; tb.t.schema.Name == table {
			return tb
		}
	}
	return nil
}

// block returns the transaction's private block for the table.
func (tx *Tx) block(table string) (*txBlock, error) {
	if tx.last != nil && tx.last.t.schema.Name == table {
		return tx.last, nil
	}
	if tb := tx.find(table); tb != nil {
		tx.last = tb
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
	tb.keyAsc = t.schema.Columns[t.pkCols[0]].Type == KindInt
	tb.dels = tb.dels[:0]
	if err := tb.reset(t.schema, 0); err != nil {
		return nil, err
	}
	tx.blocks = append(tx.blocks, tb)
	tx.last = tb
	return tb, nil
}

// finish ends the transaction and hands its blocks back to their tables'
// pools.
func (tx *Tx) finish() {
	for _, tb := range tx.blocks {
		tb.release()
		tb.t.txBlocks.Put(tb)
	}
	tx.done, tx.blocks, tx.last = true, nil, nil
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

// Grow makes room in the transaction for n more rows of the table, so
// inserting them grows no column storage. It inserts nothing.
func (tx *Tx) Grow(table string, n int) error {
	if tx.done {
		return ErrTxDone
	}
	tb, err := tx.block(table)
	if err != nil {
		return err
	}
	tb.grow(n)
	return nil
}

// Rows reports how many rows the transaction inserts.
func (tx *Tx) Rows() int {
	n := 0
	for _, tb := range tx.blocks {
		n += tb.rows
	}
	return n
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
	cols := t.schema.Columns
	if len(row) != len(cols) {
		return 0, t.schema.CheckRow(row)
	}
	auto := t.autoKey(row)
	for ci := range row {
		if row[ci].kind == cols[ci].Type || auto && ci == t.pkCols[0] {
			continue
		}
		if _, err := t.schema.checkValue(ci, row[ci]); err != nil {
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
	blocks := slices.DeleteFunc(slices.Clone(tx.blocks), func(tb *txBlock) bool { return tb.rows == 0 && len(tb.dels) == 0 })
	if len(blocks) > 0 {
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

// commit finishes the blocks outside the lock — their zone maps and the
// records of the commit's group, the last one closing it — then admits,
// logs and applies them under it. A commit that leaves a tail full behind
// a sealed one waits, outside the lock, for the compaction pass in flight
// (segState.awaitPass).
func (db *DB) commit(tx *Tx, blocks []*txBlock) error {
	deletes := false
	for _, tb := range blocks {
		tb.finish()
		slices.Sort(tb.dels)
		tb.dels = slices.Compact(tb.dels)
		tb.recs = tb.recs[:0]
		for _, id := range tb.dels {
			tb.recs = appendRecord(tb.recs, encodeMutationPayload(&mutation{op: opDelete, table: tb.t.schema.Name, more: true, id: id}))
		}
		tb.recs = appendBlockRecords(tb.recs, tb.t.schema.Name, &tb.ColumnBlock)
		deletes = deletes || len(tb.dels) > 0
	}
	endGroup(blocks[len(blocks)-1].recs, 0)
	if deletes {
		db.seg.compactMu.Lock()
	}
	full, err := db.commitLocked(tx, blocks)
	if deletes {
		db.seg.compactMu.Unlock()
	}
	if full {
		// The commit is in the log whatever becomes of the pass; one that
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
	if err := db.logGroupLocked(blocks); err != nil {
		return false, err
	}
	for _, tb := range blocks {
		if len(tb.dels) > 0 {
			tb.t.deleteLocked(tb.dels)
		}
		tb.t.tail.tailAppendBlock(tb.t.pkCols, &tb.ColumnBlock, tb.keyAsc)
		tb.release() // its rows are in: they no longer hold back a seal
	}
	return db.seg.sealReadyLocked(db.seg.flushRows.Load()), nil
}

// logGroupLocked appends the commit's group — the blocks' records — to
// the log, after the DDL records its buffer holds, and writes them in one
// write, fsynced in synchronous mode. If the write or fsync fails, the
// log is taken back to where it stood (rewindLocked): a failed commit
// leaves no record.
func (db *DB) logGroupLocked(blocks []*txBlock) error {
	l := db.log
	mark := l.size
	for _, tb := range blocks {
		l.appendFramed(tb.recs)
	}
	err := l.flush()
	if err == nil {
		db.seg.stepped("commit write")
		if db.syncWAL {
			err = l.sync()
		}
	}
	if err != nil {
		return db.rewindLocked(err, mark)
	}
	db.seg.stepped("commit")
	db.logAppended += uint64(l.size - mark)
	return nil
}

// --- admission (engine write lock held) ---

// admitLocked checks the block against the published table: it is still
// the table the block was begun on, every row it deletes is there, no
// primary key of its inserts is taken there (but by a row it deletes) or
// twice in the block, and every foreign key is matched.
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

// admitKeysLocked checks the block's primary keys against the table's
// rows but the ones the block deletes, and against each other. Keys that
// ascend in the block — each row of a document — need no sort, and a
// row above every key the blocks hold costs one comparison; any other is
// looked up.
func (tb *txBlock) admitKeysLocked() error {
	t, b := tb.t, &tb.ColumnBlock
	dup := func(i int) error {
		return fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, b.Row(i, nil))
	}
	for i := 1; i < b.rows && !tb.keyAsc; i++ {
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
			if tb.keyAsc {
				break // every later key is greater still
			}
			continue
		}
		for k, c := range t.pkCols {
			key[k] = b.cell(c, i)
		}
		if ref, exists := t.findPKLocked(key); exists {
			if _, deleted := slices.BinarySearch(tb.dels, ref.id); !deleted {
				return dup(i)
			}
		}
	}
	return nil
}

// checkBlockForeignKeys checks each foreign key of the block's table for
// every distinct value the block holds: against the rows the transaction
// inserts into the referenced table, then against the published ones.
// An integer column's distinct values come ascending (distinctInts), so
// they meet the transaction's own ascending keys in one merge walk.
func (db *DB) checkBlockForeignKeys(tx *Tx, tb *txBlock) error {
	schema := tb.t.schema
	for _, fk := range schema.ForeignKeys {
		ref, ok := db.tables[fk.RefTable]
		if !ok {
			return fmt.Errorf("reldb: table %q: foreign key references missing table %q", schema.Name, fk.RefTable)
		}
		published := func(v Value) error {
			if !ref.containsValueLocked(fk.RefColumn, v) {
				return fkError(schema, fk, v)
			}
			return nil
		}
		ci := schema.ColumnIndex(fk.Column)
		if tb.cols[ci].kind != KindInt {
			if err := tb.eachDistinct(ci, func(v Value) error {
				if tx.holds(ref, fk.RefColumn, v) {
					return nil
				}
				return published(v)
			}); err != nil {
				return err
			}
			continue
		}
		tb.distinct = tb.distinctInts(tb.distinct, ci)
		keys, ascending := tx.ownKeys(ref, fk.RefColumn)
		j := 0
		for _, v := range tb.distinct {
			var held bool
			if ascending {
				for j < len(keys) && keys[j] < v {
					j++
				}
				held = j < len(keys) && keys[j] == v
			} else {
				held = tx.holds(ref, fk.RefColumn, Int(v))
			}
			if !held {
				if err := published(Int(v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ownKeys returns the values the transaction inserts into the named
// column of table t when they ascend strictly — its first key column,
// assigned IDs — and whether they do; no values ascend.
func (tx *Tx) ownKeys(t *Table, column string) (keys []int64, ascending bool) {
	tb := tx.find(t.schema.Name)
	if tb == nil || tb.t != t || tb.rows == 0 {
		return nil, true
	}
	if ci := t.schema.ColumnIndex(column); !tb.keyAsc || ci != t.pkCols[0] {
		return nil, false
	}
	return tb.cols[t.pkCols[0]].ints.i64[:tb.rows], true // a transaction's block is at width 8
}

// distinctInts returns the distinct non-NULL values of integer column ci,
// ascending, in dst's storage (made room for every row once): in one pass
// when they ascend in the block, else by sorting them there.
func (b *ColumnBlock) distinctInts(dst []int64, ci int) []int64 {
	dst = slices.Grow(dst[:0], b.rows)
	c := &b.cols[ci]
	vals := c.ints.i64[:b.rows] // a transaction's block is at width 8
	for i, v := range vals {
		switch k := len(dst); {
		case c.nulls != nil && c.nulls[i], k > 0 && v == dst[k-1]:
		case k > 0 && v < dst[k-1]:
			dst = dst[:0]
			for i, v := range vals {
				if c.nulls == nil || !c.nulls[i] {
					dst = append(dst, v)
				}
			}
			slices.Sort(dst)
			return slices.Compact(dst)
		default:
			dst = append(dst, v)
		}
	}
	return dst
}

// eachDistinct calls fn with each distinct non-NULL value of column ci,
// until fn fails. A small block finds repeats by a scan, a large one by a
// set.
func (b *ColumnBlock) eachDistinct(ci int, fn func(Value) error) error {
	const small = 8
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
