package reldb

// WriteLocks reports how often the engine's write lock has been taken —
// what a commit is meant to do once — for the tests of package reldb_test,
// which drive the engine through the datastore.
func WriteLocks(eng Engine) uint64 {
	switch e := eng.(type) {
	case *DB:
		return e.mu.writes.Load()
	case *FileEngine:
		return e.mu.writes.Load()
	}
	return 0
}
