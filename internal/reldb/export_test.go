package reldb

// WriteLocks reports how often the engine's write lock has been taken —
// what a commit is meant to do once — for the tests of package reldb_test,
// which drive the engine through the datastore.
func WriteLocks(db *DB) uint64 { return db.mu.writes.Load() }

// StopCompactor stops the background compactor, whose passes take the
// write lock too.
func StopCompactor(db *DB) { db.seg.shutdown() }

// RowSetRows counts the rows a table holds in a row set, not in blocks.
func RowSetRows(t *Table) int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return len(t.active.rows)
}
