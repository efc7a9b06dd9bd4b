package reldb

// WriteLocks reports how often the engine's write lock has been taken —
// what a commit is meant to do once — for the tests of package reldb_test,
// which drive the engine through the datastore.
func WriteLocks(db *DB) uint64 { return db.mu.writes.Load() }
