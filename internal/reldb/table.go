package reldb

import (
	"fmt"
	"sync"
)

// Table holds the rows and indexes for one relation. All access is
// mediated by the owning DB, which provides locking; Table methods assume
// the caller holds the appropriate DB lock.
type Table struct {
	db     *DB
	schema *Schema

	rows   map[int64]Row // row ID -> row
	nextID int64         // next row ID / auto primary key

	primary *btree                 // encoded PK -> row ID
	indexes map[string]*tableIndex // secondary indexes by name

	pkCols    []int // column positions of the primary key
	dataBytes int64 // approximate stored data volume
	pkBytes   int64 // approximate primary B-tree key volume

	transposers sync.Pool // *transposer: reusable blocks for Blocks/Gather
}

type tableIndex struct {
	spec  IndexSpec
	cols  []int
	tree  *btree
	bytes int64 // approximate key volume held by this index
}

func newTable(db *DB, schema *Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		db:      db,
		schema:  schema,
		rows:    make(map[int64]Row),
		nextID:  1,
		primary: newBTree(),
		indexes: make(map[string]*tableIndex),
	}
	for _, pk := range schema.PrimaryKey {
		t.pkCols = append(t.pkCols, schema.ColumnIndex(pk))
	}
	for _, spec := range schema.Indexes {
		if err := t.addIndex(spec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *Table) addIndex(spec IndexSpec) error {
	if _, dup := t.indexes[spec.Name]; dup {
		return fmt.Errorf("reldb: table %q: index %q already exists", t.schema.Name, spec.Name)
	}
	ix := &tableIndex{spec: spec, tree: newBTree()}
	for _, col := range spec.Columns {
		ix.cols = append(ix.cols, t.schema.ColumnIndex(col))
	}
	for id, row := range t.rows {
		if err := ix.insert(row, id); err != nil {
			return err
		}
	}
	t.indexes[spec.Name] = ix
	return nil
}

// key builds the index key for a row; non-unique indexes append the row ID
// to disambiguate duplicates.
func (ix *tableIndex) key(row Row, id int64) []byte {
	key := make([]byte, 0, 16*len(ix.cols))
	for _, c := range ix.cols {
		key = encodeValue(key, row[c])
	}
	if !ix.spec.Unique {
		key = encodeValue(key, Int(id))
	}
	return key
}

func (ix *tableIndex) insert(row Row, id int64) error {
	key := ix.key(row, id)
	if ix.spec.Unique {
		if _, exists := ix.tree.Get(key); exists {
			return fmt.Errorf("reldb: unique index %q violated", ix.spec.Name)
		}
	}
	ix.tree.Set(key, id)
	ix.bytes += int64(len(key)) + 8
	return nil
}

func (ix *tableIndex) remove(row Row, id int64) {
	key := ix.key(row, id)
	ix.tree.Delete(key)
	ix.bytes -= int64(len(key)) + 8
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() *Schema { return t.schema }

// pkKey encodes the primary key of a row.
func (t *Table) pkKey(row Row) []byte {
	key := make([]byte, 0, 16*len(t.pkCols))
	for _, c := range t.pkCols {
		key = encodeValue(key, row[c])
	}
	return key
}

func rowBytes(row Row) int64 {
	var n int64
	for _, v := range row {
		switch v.Kind() {
		case KindString:
			n += int64(len(v.Text())) + 4
		case KindNull:
			n++
		default:
			n += 8
		}
	}
	return n + 8 // row header
}

// insertLocked adds a row. If the primary key is a single integer column
// whose value is NULL, a fresh ID is assigned (sequence semantics). It
// returns the row ID, which equals the integer primary key when one is
// auto-assigned.
func (t *Table) insertLocked(row Row) (int64, error) {
	row = row.Clone()
	if len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Type == KindInt && row[t.pkCols[0]].IsNull() {
		row[t.pkCols[0]] = Int(t.nextID)
	}
	if err := t.schema.CheckRow(row); err != nil {
		return 0, err
	}
	if err := t.db.checkForeignKeys(t.schema, row); err != nil {
		return 0, err
	}
	pk := t.pkKey(row)
	if _, exists := t.primary.Get(pk); exists {
		return 0, fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
	}
	id := t.nextID
	t.nextID++
	// Keep nextID ahead of explicit integer primary keys.
	if len(t.pkCols) == 1 && row[t.pkCols[0]].Kind() == KindInt {
		if v := row[t.pkCols[0]].Int64(); v >= t.nextID {
			t.nextID = v + 1
		}
	}
	for _, ix := range t.indexes {
		if err := ix.insert(row, id); err != nil {
			// Roll back indexes already updated.
			for _, prev := range t.indexes {
				if prev == ix {
					break
				}
				prev.remove(row, id)
			}
			return 0, err
		}
	}
	t.rows[id] = row
	t.primary.Set(pk, id)
	t.dataBytes += rowBytes(row)
	t.pkBytes += int64(len(pk)) + 8
	return id, nil
}

func (t *Table) deleteLocked(id int64) (Row, error) {
	row, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("reldb: table %q: no row %d", t.schema.Name, id)
	}
	pk := t.pkKey(row)
	t.primary.Delete(pk)
	t.pkBytes -= int64(len(pk)) + 8
	for _, ix := range t.indexes {
		ix.remove(row, id)
	}
	delete(t.rows, id)
	t.dataBytes -= rowBytes(row)
	return row, nil
}

func (t *Table) updateLocked(id int64, row Row) (Row, error) {
	old, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("reldb: table %q: no row %d", t.schema.Name, id)
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	if err := t.db.checkForeignKeys(t.schema, row); err != nil {
		return nil, err
	}
	newPK := t.pkKey(row)
	oldPK := t.pkKey(old)
	if string(newPK) != string(oldPK) {
		if _, exists := t.primary.Get(newPK); exists {
			return nil, fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
		}
	}
	for _, ix := range t.indexes {
		ix.remove(old, id)
	}
	for _, ix := range t.indexes {
		if err := ix.insert(row, id); err != nil {
			// Restore the previous index state.
			for _, prev := range t.indexes {
				if prev == ix {
					break
				}
				prev.remove(row, id)
			}
			for _, prev := range t.indexes {
				_ = prev.insert(old, id)
			}
			return nil, err
		}
	}
	t.primary.Delete(oldPK)
	t.primary.Set(newPK, id)
	t.rows[id] = row
	t.dataBytes += rowBytes(row) - rowBytes(old)
	t.pkBytes += int64(len(newPK)) - int64(len(oldPK))
	return old, nil
}

// indexBytesLocked approximates the key bytes held by the primary
// B-tree and every secondary index.
func (t *Table) indexBytesLocked() int64 {
	n := t.pkBytes
	for _, ix := range t.indexes {
		n += ix.bytes
	}
	return n
}

// Len reports the number of rows. It takes the DB read lock.
func (t *Table) Len() int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return len(t.rows)
}

// DataBytes reports the approximate stored data volume in bytes.
func (t *Table) DataBytes() int64 {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.dataBytes
}

// Get returns the row with the given row ID.
func (t *Table) Get(id int64) (Row, bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	row, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return row.Clone(), true
}

// GetByPK returns the row whose primary key columns equal key.
func (t *Table) GetByPK(key ...Value) (Row, int64, bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	id, ok := t.primary.Get(EncodeKey(nil, key...))
	if !ok {
		return nil, 0, false
	}
	return t.rows[id].Clone(), id, true
}

// Scan visits every row in primary-key order. The visitor must not mutate
// the table; it returns false to stop.
func (t *Table) Scan(fn func(id int64, row Row) bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	t.primary.Ascend(nil, nil, func(_ []byte, id int64) bool {
		return fn(id, t.rows[id])
	})
}

// PKScan visits rows whose leading primary-key columns equal the given
// prefix values, in primary-key order. Composite-key link tables use this
// for efficient prefix lookups without a secondary index.
func (t *Table) PKScan(prefix []Value, fn func(id int64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	if len(prefix) > len(t.pkCols) {
		return fmt.Errorf("reldb: table %q: PK prefix has %d values, key has %d columns",
			t.schema.Name, len(prefix), len(t.pkCols))
	}
	lo := EncodeKey(nil, prefix...)
	var hi []byte
	if len(lo) > 0 {
		hi = prefixUpperBound(lo)
	}
	if len(lo) == 0 {
		lo = nil
	}
	t.primary.Ascend(lo, hi, func(_ []byte, id int64) bool {
		return fn(id, t.rows[id])
	})
	return nil
}

// IndexScan visits rows whose index-key prefix equals the given values, in
// index order. The named index must exist.
func (t *Table) IndexScan(index string, prefix []Value, fn func(id int64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ix, ok := t.indexes[index]
	if !ok {
		return fmt.Errorf("reldb: table %q: no index %q", t.schema.Name, index)
	}
	if len(prefix) > len(ix.cols) {
		return fmt.Errorf("reldb: table %q index %q: prefix has %d values, index has %d columns",
			t.schema.Name, index, len(prefix), len(ix.cols))
	}
	lo := EncodeKey(nil, prefix...)
	var hi []byte
	if len(lo) > 0 {
		hi = prefixUpperBound(lo)
	}
	if len(lo) == 0 {
		lo = nil
	}
	ix.tree.Ascend(lo, hi, func(_ []byte, id int64) bool {
		return fn(id, t.rows[id])
	})
	return nil
}

// IndexRange visits rows whose single-column index value v satisfies
// lo <= v < hi (NULL bounds mean unbounded).
func (t *Table) IndexRange(index string, lo, hi Value, fn func(id int64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ix, ok := t.indexes[index]
	if !ok {
		return fmt.Errorf("reldb: table %q: no index %q", t.schema.Name, index)
	}
	var loKey, hiKey []byte
	if !lo.IsNull() {
		loKey = EncodeKey(nil, lo)
	}
	if !hi.IsNull() {
		hiKey = EncodeKey(nil, hi)
	}
	ix.tree.Ascend(loKey, hiKey, func(_ []byte, id int64) bool {
		return fn(id, t.rows[id])
	})
	return nil
}

// HasIndex reports whether the table has an index with the given name.
func (t *Table) HasIndex(name string) bool {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	_, ok := t.indexes[name]
	return ok
}

// IndexOnColumns returns the name of an index whose leading columns equal
// cols, preferring unique indexes, or "" if none exists.
func (t *Table) IndexOnColumns(cols ...string) string {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	best := ""
	for name, ix := range t.indexes {
		if len(ix.spec.Columns) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if ix.spec.Columns[i] != c {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if best == "" || (ix.spec.Unique && !t.indexes[best].spec.Unique) ||
			(ix.spec.Unique == t.indexes[best].spec.Unique && name < best) {
			best = name
		}
	}
	return best
}
