package reldb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Table holds the rows and indexes for one relation. All access is
// mediated by the owning DB, which provides locking; Table methods assume
// the caller holds the appropriate DB lock.
//
// Every table keeps its rows in columnar blocks (compact.go): segments
// (flushed rows, and replacements a pass has yet to write), the sealed
// tail (waiting for the compactor) and the active tail, an unwritten
// segment that only grows. A block never changes in place: a delete swaps
// each block it touches for a copy (replaceLocked), so a reader holding
// one reads it unchanged. Row IDs ascend from block to block, in the
// order listed; primary keys need not: blocks whose key ranges overlap — a
// key that arrived below a flushed one — are merged by reads
// (keyOrdered), disjoint ones concatenated.
type Table struct {
	db      *DB
	schema  *Schema
	nextID  atomic.Int64 // next row ID / auto primary key; a transaction reserves from it under no lock
	pkCols  []int        // column positions of the primary key
	indexes map[string]*tableIndex

	tail         *segment   // the active columnar tail
	sealed       *segment   // nil unless a tail waits for the compactor
	segs         []*segment // ascending in row ID
	blocks       []*segment // segs, sealed, tail: the columnar sources in row-ID order
	segRows      int64      // rows, encoded bytes and decoded bytes in segs
	segBytes     int64
	segDataBytes int64
	// reserving counts the open transactions holding row IDs of the table,
	// which hold back a seal: their rows must not land in a tail after
	// one with higher IDs.
	reserving atomic.Int64

	transposers sync.Pool // *transposer: reusable blocks for Blocks/Gather
	txBlocks    sync.Pool // *txBlock: reusable private blocks for transactions
}

// tableIndex is a secondary index: each block sorts a permutation of its
// rows by the index columns, then row ID, on first use.
type tableIndex struct {
	spec IndexSpec
	cols []int
}

func newTable(db *DB, schema *Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{db: db, schema: schema, indexes: make(map[string]*tableIndex)}
	t.nextID.Store(1)
	for _, pk := range schema.PrimaryKey {
		t.pkCols = append(t.pkCols, schema.ColumnIndex(pk))
	}
	for _, spec := range schema.Indexes {
		if err := t.addIndex(spec); err != nil {
			return nil, err
		}
	}
	t.installLocked(nil, t.newBlock(0, 0))
	return t, nil
}

// tailsLocked returns the sealed and active columnar tails, whichever
// the table has.
func (t *Table) tailsLocked() []*segment { return t.blocks[len(t.segs):] }

// installLocked makes sealed (nil for none) and tail the table's tails.
func (t *Table) installLocked(sealed, tail *segment) {
	t.sealed, t.tail = sealed, tail
	t.blocks = slices.Clone(t.segs)
	for _, s := range []*segment{sealed, tail} {
		if s != nil {
			t.blocks = append(t.blocks, s)
		}
	}
}

// addIndex catalogs a secondary index; each block builds its permutation
// lazily. Blocks cannot enforce uniqueness — the names directory is what
// keeps names unique — so a unique index is refused, except in recovery:
// one that a directory from before that declares is kept in name only
// until the datastore replaces it.
func (t *Table) addIndex(spec IndexSpec) error {
	if _, dup := t.indexes[spec.Name]; dup {
		return fmt.Errorf("reldb: table %q: index %q already exists", t.schema.Name, spec.Name)
	}
	if spec.Unique && !t.db.replaying {
		return fmt.Errorf("reldb: table %q: unique index %q over columnar rows", t.schema.Name, spec.Name)
	}
	var cols []int
	for _, col := range spec.Columns {
		cols = append(cols, t.schema.ColumnIndex(col))
	}
	t.indexes[spec.Name] = &tableIndex{spec: spec, cols: cols}
	for _, s := range t.blocks {
		s.perms[spec.Name] = new(lazyPerm)
	}
	return nil
}

// dropIndex forgets a secondary index everywhere it is kept.
func (t *Table) dropIndex(name string) {
	delete(t.indexes, name)
	for _, s := range t.blocks {
		delete(s.perms, name)
	}
}

// key builds the index key for a row, the row ID last: what orders the
// matches of a partial-key scan.
func (ix *tableIndex) key(row Row, id int64) []byte {
	key := make([]byte, 0, 16*len(ix.cols))
	for _, c := range ix.cols {
		key = encodeValue(key, row[c])
	}
	return encodeValue(key, Int(id))
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() *Schema { return t.schema }

// pkOf returns the primary key of a row.
func (t *Table) pkOf(row Row) []Value {
	key := make([]Value, len(t.pkCols))
	for i, c := range t.pkCols {
		key[i] = row[c]
	}
	return key
}

// rowRef locates a stored row: a block and a position in it.
type rowRef struct {
	id  int64
	seg *segment
	pos int
}

// clone returns a copy of the located row that is the caller's to keep.
func (r rowRef) clone() Row { return r.seg.row(r.pos) }

// findIDLocked locates the row with the given row ID: in the one block
// whose row-ID range can hold it — or, while recovery has yet to put an
// older directory's blocks in row-ID order (orderLocked), in any.
func (t *Table) findIDLocked(id int64) (rowRef, bool) {
	if n := len(t.blocks); n > 0 && id <= t.blocks[n-1].maxRowID {
		k := sort.Search(n, func(k int) bool { return t.blocks[k].maxRowID >= id })
		if pos, ok := t.blocks[k].findID(id); ok {
			return rowRef{id: id, seg: t.blocks[k], pos: pos}, true
		}
	}
	for k := 0; t.db.replaying && k < len(t.blocks); k++ {
		if pos, ok := t.blocks[k].findID(id); ok {
			return rowRef{id: id, seg: t.blocks[k], pos: pos}, true
		}
	}
	return rowRef{}, false
}

// findPKLocked locates the row whose primary key is key, a value for
// every key column: each block whose key zone covers the key is probed,
// which is one block unless runs overlap there.
func (t *Table) findPKLocked(key []Value) (rowRef, bool) {
	if len(key) != len(t.pkCols) {
		return rowRef{}, false
	}
	for _, s := range t.blocks {
		if s.zoneExcludes(t.pkCols[0], key[0]) {
			continue
		}
		if pos, ok := s.findPK(t.pkCols, key); ok {
			return rowRef{id: s.rowIDs.At(pos), seg: s, pos: pos}, true
		}
	}
	return rowRef{}, false
}

// autoKey reports whether the table assigns row's primary key: a single
// integer key column holding NULL (sequence semantics).
func (t *Table) autoKey(row Row) bool {
	return len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Type == KindInt && row[t.pkCols[0]].IsNull()
}

// reserveID takes the next row ID — which is row's primary key when
// that is assigned — and moves the counter past it and past an explicit
// integer key.
func (t *Table) reserveID(row Row) int64 {
	for {
		id := t.nextID.Load()
		next := id + 1
		if len(t.pkCols) == 1 && row[t.pkCols[0]].Kind() == KindInt {
			next = max(next, row[t.pkCols[0]].Int64()+1)
		}
		if t.nextID.CompareAndSwap(id, next) {
			return id
		}
	}
}

// insertAtLocked appends a row under a specific row ID to the tail:
// recovery loading a legacy snapshot or replaying a log.
func (t *Table) insertAtLocked(id int64, row Row) error {
	if _, exists := t.findIDLocked(id); exists {
		return fmt.Errorf("reldb: table %q: row %d already present", t.schema.Name, id)
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	if _, exists := t.findPKLocked(t.pkOf(row)); exists {
		return fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
	}
	t.tail.tailAppendRow(t.pkCols, id, row)
	t.advanceID(id + 1)
	return nil
}

// advanceID moves the row-ID counter up to next, if it is below.
func (t *Table) advanceID(next int64) {
	for cur := t.nextID.Load(); cur < next && !t.nextID.CompareAndSwap(cur, next); cur = t.nextID.Load() {
	}
}

// deleteLocked removes the rows with the given IDs, skipping any the
// table does not hold, by replacing each block they touch once.
func (t *Table) deleteLocked(ids []int64) {
	edits := make(map[*segment]map[int]Row)
	for _, id := range ids {
		if ref, ok := t.findIDLocked(id); ok {
			if edits[ref.seg] == nil {
				edits[ref.seg] = make(map[int]Row)
			}
			edits[ref.seg][ref.pos] = nil
		}
	}
	for s, e := range edits {
		t.replaceLocked(s, e)
	}
}

// updateLocked replaces a row: recovery replaying an update record,
// which a directory written before the engine stopped taking updates can
// hold. Like every replayed record it is truth: no foreign key is
// probed.
func (t *Table) updateLocked(id int64, row Row) error {
	ref, ok := t.findIDLocked(id)
	if !ok {
		return fmt.Errorf("reldb: table %q: no row %d", t.schema.Name, id)
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	if other, exists := t.findPKLocked(t.pkOf(row)); exists && other.id != id {
		return fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
	}
	t.replaceLocked(ref.seg, map[int]Row{ref.pos: row})
	return nil
}

// replaceLocked swaps block s for a copy without the row at each position
// edits maps to nil and with the mapped image at each other one it names.
// A tail's copy is that tail, logs and all; a segment's is an unwritten
// segment in its place, narrowed once filled, which the next pass writes
// and its manifest names instead of the files it replaces. An emptied
// copy leaves the table: its
// files and logs go once the next manifest is durable.
func (t *Table) replaceLocked(s *segment, edits map[int]Row) {
	c := t.newBlock(0, s.rows)
	c.logs, c.replaces, c.sizeOn = s.logs, s.files(), s.sizeOn
	for i := 0; i < s.rows; i++ {
		if img, edited := edits[i]; !edited {
			c.appendFrom(&s.ColumnBlock, i)
		} else if img != nil {
			c.appendRow(s.rowIDs.At(i), img)
		}
	}
	c.appended(t.pkCols, 0)
	if c.rows == 0 {
		c.maxRowID = s.maxRowID // an empty tail still bounds the row IDs before it
	}
	if s == t.tail {
		c.finish()
		t.installLocked(t.sealed, c)
		return
	}
	c.freeze(t.pkCols)
	c = c.narrowed()
	if st := t.db.seg; c.rows == 0 {
		st.garbage, st.retired = append(st.garbage, c.replaces...), append(st.retired, c.logs...)
		c = nil
	}
	if s == t.sealed {
		t.installLocked(c, t.tail)
		return
	}
	k := slices.Index(t.segs, s)
	t.segDelta(s, -1)
	if c == nil {
		t.segs = slices.Delete(t.segs, k, k+1)
	} else {
		t.segs[k] = c
		t.segDelta(c, 1)
	}
	t.installLocked(t.sealed, t.tail)
}

// logsLocked returns the tail logs the table's unflushed rows own, in
// replay order: the sealed tail's, then the active one's.
func (t *Table) logsLocked() []*logFile {
	var logs []*logFile
	for _, s := range t.tailsLocked() {
		logs = append(logs, s.logs...)
	}
	return logs
}

// lenLocked counts the table's rows wherever they live.
func (t *Table) lenLocked() int64 {
	n := t.segRows
	for _, s := range t.tailsLocked() {
		n += int64(s.rows)
	}
	return n
}

// Len reports the number of rows. It takes the DB read lock.
func (t *Table) Len() int {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return int(t.lenLocked())
}

// Get returns the row with the given row ID.
func (t *Table) Get(id int64) (Row, bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ref, ok := t.findIDLocked(id)
	if !ok {
		return nil, false
	}
	return ref.clone(), true
}

// GetByPK returns the row whose primary key columns equal key.
func (t *Table) GetByPK(key ...Value) (Row, int64, bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ref, ok := t.findPKLocked(key)
	if !ok {
		return nil, 0, false
	}
	return ref.clone(), ref.id, true
}

// ascendLocked visits the rows whose leading primary-key columns equal
// prefix (every row when it is empty) in primary-key order: the stretch
// of each block whose key zone admits the prefix, binary-searched and
// taken run by run. A row is the visitor's to keep.
func (t *Table) ascendLocked(prefix []Value, fn func(id int64, row Row) bool) {
	var spans []span
	for _, s := range t.blocks {
		if s.rows == 0 || len(prefix) > 0 && s.zoneExcludes(t.pkCols[0], prefix[0]) {
			continue
		}
		perm := s.pkPerm(t.pkCols)
		spans = append(spans, span{s, &s.ColumnBlock, perm,
			s.bound(perm, t.pkCols, prefix, false), s.bound(perm, t.pkCols, prefix, true)})
	}
	if len(spans) == 1 { // a point prefix, nearly always
		spans[0].b.eachRow(spans[0].perm, spans[0].from, spans[0].to, fn)
		return
	}
	for _, run := range keyOrdered(spans, t.pkCols) {
		more := false
		if sp := run[0]; len(run) == 1 {
			more = sp.b.eachRow(sp.perm, sp.from, sp.to, fn)
		} else {
			more = mergeRun(run, t.pkCols, func(b *ColumnBlock, i int) bool { return fn(b.rowIDs.At(i), b.row(i)) })
		}
		if !more {
			return
		}
	}
}

// Scan visits every row in primary-key order. The visitor must not mutate
// the table; it returns false to stop.
func (t *Table) Scan(fn func(id int64, row Row) bool) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	t.ascendLocked(nil, fn)
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
	t.ascendLocked(prefix, fn)
	return nil
}

// equalSpan returns the stretch of a block's permutation for index ix
// whose entries start with prefix. A block whose zone map excludes the
// leading value is skipped before its permutation is ever built.
func (s *segment) equalSpan(ix *tableIndex, prefix []Value) (perm []int32, from, to int) {
	if len(prefix) > 0 && s.zoneExcludes(ix.cols[0], prefix[0]) {
		return nil, 0, 0
	}
	perm = s.indexPerm(ix)
	return perm, s.bound(perm, ix.cols, prefix, false), s.bound(perm, ix.cols, prefix, true)
}

// indexScanLocked visits rows whose index-key prefix equals the given
// values, in index order: each block's stretch of its sorted permutation.
// Row IDs ascend from block to block, so for a whole key the stretches
// concatenate into (key, row ID) order; for a shorter prefix the matches
// are gathered and sorted by key.
func (t *Table) indexScanLocked(ix *tableIndex, prefix []Value, fn func(id int64, row Row) bool) {
	type hit struct {
		key []byte
		id  int64
		row Row
	}
	var hits []hit
	visit := fn
	if len(prefix) < len(ix.cols) && len(t.blocks) > 1 {
		visit = func(id int64, row Row) bool {
			hits = append(hits, hit{ix.key(row, id), id, row})
			return true
		}
	}
	for _, s := range t.blocks {
		if perm, from, to := s.equalSpan(ix, prefix); !s.eachRow(perm, from, to, visit) {
			return
		}
	}
	sort.Slice(hits, func(a, b int) bool { return bytes.Compare(hits[a].key, hits[b].key) < 0 })
	for _, h := range hits {
		if !fn(h.id, h.row) {
			return
		}
	}
}

// indexLocked checks an index scan's arguments.
func (t *Table) indexLocked(index string, prefix []Value) (*tableIndex, error) {
	ix, ok := t.indexes[index]
	if !ok {
		return nil, fmt.Errorf("reldb: table %q: no index %q", t.schema.Name, index)
	}
	if len(prefix) > len(ix.cols) {
		return nil, fmt.Errorf("reldb: table %q index %q: prefix has %d values, index has %d columns",
			t.schema.Name, index, len(prefix), len(ix.cols))
	}
	return ix, nil
}

// IndexScanInt is IndexScan for a caller that reads one NOT NULL integer
// column of each row whose index key equals key, a value for every index
// column: fn gets the row ID and that column's value, in (key, row ID)
// order, and no Row is built. The pr-filter's two link-table scans, half
// of what a cold query costs, read this way.
func (t *Table) IndexScanInt(index string, key []Value, col int, fn func(id, v int64) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ix, err := t.indexLocked(index, key)
	if err != nil {
		return err
	}
	if len(key) != len(ix.cols) || col < 0 || col >= len(t.schema.Columns) || t.schema.Columns[col].Type != KindInt {
		return fmt.Errorf("reldb: table %q index %q: IndexScanInt needs a whole key and an integer column", t.schema.Name, index)
	}
	for _, s := range t.blocks {
		perm, from, to := s.equalSpan(ix, key)
		ids, vals := &s.rowIDs, &s.cols[col].ints
		for _, i := range perm[from:to] {
			if !fn(ids.At(int(i)), vals.At(int(i))) {
				return nil
			}
		}
	}
	return nil
}

// IndexScan visits rows whose index-key prefix equals the given values, in
// index order. The named index must exist.
func (t *Table) IndexScan(index string, prefix []Value, fn func(id int64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ix, err := t.indexLocked(index, prefix)
	if err != nil {
		return err
	}
	t.indexScanLocked(ix, prefix, fn)
	return nil
}

// HasIndex reports whether the table has an index with the given name.
func (t *Table) HasIndex(name string) bool {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	_, ok := t.indexes[name]
	return ok
}
