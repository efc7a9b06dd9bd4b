package reldb

// WriteLocks reports how often the engine's write lock has been taken —
// what a commit is meant to do once — for the tests of package reldb_test,
// which drive the engine through the datastore.
func WriteLocks(db *DB) uint64 { return db.mu.writes.Load() }

// StopCompactor stops the background compactor, whose passes take the
// write lock too.
func StopCompactor(db *DB) { db.seg.shutdown() }

// HotTables are the tables whose rows live in column blocks.
var HotTables = segmentHotTables

// BlockRow builds row i of a block.
func BlockRow(b *ColumnBlock, i int) Row { return b.row(i) }

// Values returns a vector's values, whatever its width: tests compare
// columns by value.
func Values(v *IntVec) []int64 {
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// StringCodes returns a string column's dictionary codes: those a decoded
// segment read from its file or, for a block without them, those the
// encoder writes for it.
func StringCodes(b *ColumnBlock, col int) []uint32 {
	if c := &b.cols[col]; c.codes != nil {
		return c.codes
	}
	codes, _ := dictOf(b.cols[col].strs)
	return codes
}

// RowSetRows counts the rows a table holds in a row set, not in blocks.
func RowSetRows(t *Table) int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return len(t.active.rows)
}
