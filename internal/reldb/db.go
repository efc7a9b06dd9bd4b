package reldb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// mutOp enumerates logical mutations, as the log records them; the
// values are the records' op bytes. Ops 2, 3 and 4, an older program's
// DROP TABLE, per-row insert and update, are unknown to the decoder.
type mutOp uint8

const (
	opCreateTable mutOp = 1
	opDelete      mutOp = 5
	opCreateIndex mutOp = 6
	opDropIndex   mutOp = 7
	opInsertBlock mutOp = 8 // rows a commit inserts into one table, column-major
	opRotate      mutOp = 9 // a log file's first record: the file it continues
)

// mutation is one logical change to the database, as the log records it.
type mutation struct {
	op     mutOp
	table  string
	more   bool // the next record continues the group
	id     int64
	block  *ColumnBlock // opInsertBlock: the rows, integers at width 8 (consecutive ones decoded as runs)
	schema *Schema      // opCreateTable
	index  IndexSpec
	seq    int64 // opRotate: the log file this one continues
	size   int64 // opRotate: that file's length when this one began
}

// ErrRefused wraps the error every write returns once an fsync failed or
// a failed write could not be undone: what a file holds on disk is then
// unknown, or a log holds bytes of a write that did not happen, so the
// engine takes no more writes, and no checkpoint that would make them
// durable, until it is reopened.
var ErrRefused = errors.New("reldb: the engine refuses writes")

var errClosed = errors.New("reldb: engine closed")

// DB is the storage engine: a set of tables guarded by one
// readers-writer lock, whose rows a background compactor moves from
// columnar tails into columnar segments (compact.go) — all through one
// filesystem, fsys. Every commit and DDL statement goes to one numbered
// commit log (file.go); each compaction pass starts a new log file that
// carries the schema and the tails forward, and deletes the older ones
// once a manifest names the segments holding their other rows. NewMem
// opens it over an in-memory filesystem, OpenFile over a directory; the
// engine is the same. It stands in for the DBMS backends (Oracle,
// PostgreSQL) of the original PerfTrack prototype.
type DB struct {
	mu     engineLock
	tables map[string]*Table
	order  []*Table // every table, each after the ones its foreign keys name
	seg    *segState

	fsys    FS
	kind    string
	dir     string
	log     *logFile   // the log file taking records
	oldLogs []*logFile // older log files, live until a manifest names a newer low-water file
	syncWAL bool       // fsync the log at each commit and DDL statement

	// Guarded by the engine lock.
	replaying    bool   // recovery: mutations apply without being logged
	refused      error  // set by Close, a failed fsync, or a failed write that could not be undone: every later write returns it
	logBytes     int64  // bytes of all live log files at the last Stats call that could flush them
	flushErrors  uint64 // Stats calls that could not
	logAppended  uint64 // bytes ever appended to a log
	logTrimmed   uint64 // bytes of log deleted or truncated away
	replayedRows int    // rows the open applied from the log: inserted or deleted
}

// engineLock is the engine's readers-writer lock; it counts how often it
// was taken for writing, which is what a commit is meant to do once.
type engineLock struct {
	sync.RWMutex
	writes atomic.Uint64
}

func (l *engineLock) Lock() {
	l.writes.Add(1)
	l.RWMutex.Lock()
}

// CreateTable creates a table from the schema.
func (db *DB) CreateTable(schema *Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createTableLocked(schema)
}

func (db *DB) createTableLocked(schema *Schema) error {
	if _, exists := db.tables[schema.Name]; exists {
		return fmt.Errorf("reldb: table %q already exists", schema.Name)
	}
	schema = schema.Clone()
	t, err := newTable(db, schema)
	if err != nil {
		return err
	}
	if err := db.logLocked(&mutation{op: opCreateTable, schema: schema}); err != nil {
		return err
	}
	db.tables[schema.Name] = t
	db.orderLocked()
	if db.replaying {
		return db.seg.attachLocked(t)
	}
	return nil
}

// orderLocked lists the tables in db.order: by name, each after the
// tables its foreign keys name.
func (db *DB) orderLocked() {
	db.order = db.order[:0]
	placed := make(map[string]bool, len(db.tables))
	var place func(name string)
	place = func(name string) {
		t := db.tables[name]
		if t == nil || placed[name] {
			return
		}
		placed[name] = true
		for _, fk := range t.schema.ForeignKeys {
			place(fk.RefTable)
		}
		db.order = append(db.order, t)
	}
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		place(name)
	}
}

// CreateIndex adds a secondary index to an existing table and backfills it.
func (db *DB) CreateIndex(table string, spec IndexSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.createIndexLocked(table, spec)
}

func (db *DB) createIndexLocked(table string, spec IndexSpec) error {
	t, exists := db.tables[table]
	if !exists {
		return fmt.Errorf("reldb: no table %q", table)
	}
	if err := db.writableLocked(); err != nil {
		return err
	}
	if err := t.addIndex(spec); err != nil {
		return err
	}
	if err := db.logLocked(&mutation{op: opCreateIndex, table: table, index: spec}); err != nil {
		t.dropIndex(spec.Name)
		return err
	}
	t.schema.Indexes = append(t.schema.Indexes, spec)
	return nil
}

// DropIndex removes a secondary index from a table.
func (db *DB) DropIndex(table, index string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dropIndexLocked(table, index)
}

func (db *DB) dropIndexLocked(table, index string) error {
	t, exists := db.tables[table]
	if !exists {
		return fmt.Errorf("reldb: no table %q", table)
	}
	if _, exists := t.indexes[index]; !exists {
		return fmt.Errorf("reldb: table %q has no index %q", table, index)
	}
	if err := db.logLocked(&mutation{op: opDropIndex, table: table, index: IndexSpec{Name: index}}); err != nil {
		return err
	}
	t.dropIndex(index)
	for i, spec := range t.schema.Indexes {
		if spec.Name == index {
			t.schema.Indexes = append(t.schema.Indexes[:i], t.schema.Indexes[i+1:]...)
			break
		}
	}
	return nil
}

// Table returns a handle for the named table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Insert adds a row to the named table, returning its row ID: a
// one-row transaction. A NULL value in a single-column integer primary key
// receives an auto-assigned ID.
func (db *DB) Insert(table string, row Row) (int64, error) {
	var id int64
	err := db.one(func(tx *Tx) (err error) {
		id, err = tx.Insert(table, row)
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Delete removes the row with the given ID: a one-row transaction.
func (db *DB) Delete(table string, id int64) error {
	return db.one(func(tx *Tx) error { return tx.Delete(table, id) })
}

// one runs op in a transaction of its own and commits it.
func (db *DB) one(op func(*Tx) error) error {
	tx := db.Begin()
	err := op(tx)
	if err == nil {
		err = tx.Commit()
	}
	if err != nil {
		_ = tx.Rollback() // the transaction is open: it hands its blocks back
	}
	return err
}

// writableLocked returns the error a write must fail with, if the engine
// takes none.
func (db *DB) writableLocked() error {
	if db.replaying {
		return nil
	}
	return db.refused
}

func fkError(schema *Schema, fk ForeignKey, v Value) error {
	return fmt.Errorf("reldb: table %q: foreign key %s=%s has no match in %s.%s",
		schema.Name, fk.Column, v, fk.RefTable, fk.RefColumn)
}

// containsValueLocked reports whether any row has the given value in the
// named column, using the primary key or an index when possible.
func (t *Table) containsValueLocked(column string, v Value) bool {
	// Fast path: column is the whole primary key.
	if len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Name == column {
		_, ok := t.findPKLocked([]Value{v})
		return ok
	}
	// Indexed path: a block holds the value when its stretch of the index is not empty.
	for _, ix := range t.indexes {
		if t.schema.Columns[ix.cols[0]].Name == column {
			return slices.ContainsFunc(t.blocks, func(s *segment) bool {
				sp := s.indexSpan(ix, []Value{v})
				return sp.from < sp.to
			})
		}
	}
	// Fallback scan.
	found := false
	if ci := t.schema.ColumnIndex(column); ci >= 0 {
		t.ascendLocked(nil, func(b *ColumnBlock, i int) bool {
			found = Equal(b.cell(ci, i), v)
			return !found
		})
	}
	return found
}

// Stats summarizes the database contents and storage footprint. Rows
// counts logical rows wherever they live. DataBytes and IndexBytes
// measure the unflushed rows only — the tails' rows in row form and the
// permutations built over them; a flushed row leaves them and is counted
// under the Segment fields instead. LogicalBytes is the data size that
// does not depend on where rows live. The file fields measure what the
// engine keeps in its filesystem, a directory's or memory's.
type Stats struct {
	Kind       string                `json:"kind"` // storage engine kind: mem or segment
	Tables     int                   `json:"tables"`
	Rows       int64                 `json:"rows"`        // logical rows: tails + segments
	DataBytes  int64                 `json:"data_bytes"`  // payload bytes of the unflushed rows
	IndexBytes int64                 `json:"index_bytes"` // tail permutation bytes over them
	PerTable   map[string]TableStats `json:"per_table"`

	WALBytes             int64  `json:"wal_bytes,omitempty"`              // every live log
	SegmentBytes         int64  `json:"segment_bytes,omitempty"`          // encoded segment files
	SegmentDataBytes     int64  `json:"segment_data_bytes,omitempty"`     // decoded segment columns: what their rows take in row form
	SegmentResidentBytes int64  `json:"segment_resident_bytes,omitempty"` // what decoded segments take in memory: their vectors at their widths, and built permutations
	DiskBytes            int64  `json:"disk_bytes,omitempty"`             // logs + segments
	FlushErrors          uint64 `json:"flush_errors,omitempty"`           // Stats calls whose WAL flush failed (WALBytes is then the last good value)
}

// LogicalBytes is the payload size of every row in row form, resident
// that way or not.
func (s Stats) LogicalBytes() int64 { return s.DataBytes + s.SegmentDataBytes }

// TableStats summarizes one table: Rows is logical; DataBytes and
// IndexBytes cover the unflushed rows, the Segment fields the rest.
type TableStats struct {
	Rows       int64 `json:"rows"`
	DataBytes  int64 `json:"data_bytes"`
	IndexBytes int64 `json:"index_bytes"`
	Indexes    int   `json:"indexes"`

	Segments             int   `json:"segments,omitempty"`
	SegmentRows          int64 `json:"segment_rows,omitempty"`
	SegmentBytes         int64 `json:"segment_bytes,omitempty"`
	SegmentDataBytes     int64 `json:"segment_data_bytes,omitempty"`
	SegmentResidentBytes int64 `json:"segment_resident_bytes,omitempty"`
}

// LogicalBytes is the payload size of the table's rows in row form.
func (ts TableStats) LogicalBytes() int64 { return ts.DataBytes + ts.SegmentDataBytes }

// tableStatsLocked counts the rows and bytes of every table.
func (db *DB) tableStatsLocked() Stats {
	s := Stats{Kind: db.kind, PerTable: make(map[string]TableStats, len(db.tables))}
	for name, t := range db.tables {
		ts := TableStats{
			Rows:             t.lenLocked(),
			Indexes:          len(t.indexes),
			Segments:         len(t.segs),
			SegmentRows:      t.segRows,
			SegmentBytes:     t.segBytes,
			SegmentDataBytes: t.segDataBytes,
		}
		for _, s := range t.segs {
			ts.SegmentResidentBytes += s.residentBytes()
		}
		for _, s := range t.tailsLocked() {
			ts.DataBytes += s.decodedBytes()
			ts.IndexBytes += s.permBytes()
		}
		s.Tables++
		s.Rows += ts.Rows
		s.DataBytes += ts.DataBytes
		s.IndexBytes += ts.IndexBytes
		s.SegmentBytes += ts.SegmentBytes
		s.SegmentDataBytes += ts.SegmentDataBytes
		s.SegmentResidentBytes += ts.SegmentResidentBytes
		s.PerTable[name] = ts
	}
	return s
}
