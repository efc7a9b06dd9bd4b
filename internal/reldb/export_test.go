package reldb

// WriteLocks reports how often the engine's write lock has been taken —
// what a commit is meant to do once — for the tests of package reldb_test,
// which drive the engine through the datastore.
func WriteLocks(db *DB) uint64 { return db.mu.writes.Load() }

// StopCompactor stops the background compactor, whose passes take the
// write lock too.
func StopCompactor(db *DB) { db.seg.shutdown() }

// HotTables are the tables a document load appends to most, whose
// blocks the reopen tests compare.
var HotTables = []string{"performance_result", "result_has_focus", "focus_has_resource",
	"focus", "resource_has_ancestor", "resource_has_descendant"}

// Visit is Lookup for a test that reads whole rows: fn gets each row's
// ID and the row, built by ColumnBlock.Row through one slab.
func Visit(t *Table, index string, prefix []Value, fn func(id int64, row Row) bool) error {
	var slab []Value
	return t.Lookup(index, prefix, func(b *ColumnBlock, i int) bool { return fn(b.IDs().At(i), b.Row(i, &slab)) })
}

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

// VecBytes is what a vector's storage takes in memory.
func VecBytes(v *IntVec) int64 { return v.bytes() }
