package reldb

import (
	"fmt"
	"io"
)

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

// CopyTree copies the files under src into dst.
var CopyTree = copyTree

// LogOps renders each record of the log at path as its kind and what it
// names — "drop index t.i", "create index t.i", "create table t", "row t"
// — for the tests of package reldb_test, which count DDL by it.
func LogOps(path string) ([]string, error) {
	f, err := osFS{}.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []string
	rr := newRecordReader(f)
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return nil, err
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			return nil, err
		}
		switch {
		case m.op == opCreateTable:
			ops = append(ops, "create table "+m.schema.Name)
		case m.op == opCreateIndex || m.op == opDropIndex:
			ops = append(ops, fmt.Sprintf("%s index %s.%s", map[mutOp]string{opCreateIndex: "create", opDropIndex: "drop"}[m.op], m.table, m.index.Name))
		default:
			ops = append(ops, "row "+m.table)
		}
	}
}
