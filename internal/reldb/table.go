package reldb

import (
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
// keeps names unique — so a unique index is refused.
func (t *Table) addIndex(spec IndexSpec) error {
	if _, dup := t.indexes[spec.Name]; dup {
		return fmt.Errorf("reldb: table %q: index %q already exists", t.schema.Name, spec.Name)
	}
	if spec.Unique {
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
func (r rowRef) clone() Row { return r.seg.Row(r.pos, nil) }

// findIDLocked locates the row with the given row ID: in the one block
// whose row-ID range can hold it.
func (t *Table) findIDLocked(id int64) (rowRef, bool) {
	if n := len(t.blocks); n > 0 && id <= t.blocks[n-1].maxRowID {
		k := sort.Search(n, func(k int) bool { return t.blocks[k].maxRowID >= id })
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
// recovery replaying the log.
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
	drops := make(map[*segment]map[int]bool)
	for _, id := range ids {
		if ref, ok := t.findIDLocked(id); ok {
			if drops[ref.seg] == nil {
				drops[ref.seg] = make(map[int]bool)
			}
			drops[ref.seg][ref.pos] = true
		}
	}
	for s, drop := range drops {
		t.replaceLocked(s, drop)
	}
}

// replaceLocked swaps block s for a copy without the rows at the
// positions drop names. A tail's copy is that tail; a segment's is an
// unwritten segment in its place, narrowed once filled, which the next
// pass writes and its manifest names instead of the files it replaces. An
// emptied copy leaves the table: its files go once the next manifest is
// durable.
func (t *Table) replaceLocked(s *segment, drop map[int]bool) {
	c := t.newBlock(0, s.rows)
	c.replaces, c.sizeOn = s.files(), s.sizeOn
	for i := 0; i < s.rows; i++ {
		if !drop[i] {
			c.appendFrom(&s.ColumnBlock, i)
		}
	}
	c.appended(t.pkCols, 0, false)
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
		st.garbage = append(st.garbage, c.replaces...)
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

// Lookup visits the rows whose leading key columns equal prefix — every
// row when prefix is empty — each as a block and a position in it, until
// fn returns false. index names a secondary index; "" is the primary key.
// Primary-key rows come in key order: the stretch of each block whose key
// zone admits the prefix, binary-searched, blocks whose stretches overlap
// merged (keyOrdered, mergeRun). Index rows come block by block in row-ID
// order, each block's matches in (index key, row ID) order — for a whole
// key, (key, row ID) order overall. fn runs under the engine read lock and
// must not call the engine; b is valid only until fn returns. Lookup
// errors on an unknown index or a prefix longer than the key.
func (t *Table) Lookup(index string, prefix []Value, fn func(b *ColumnBlock, i int) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	cols := t.pkCols
	ix, ok := t.indexes[index]
	if ok {
		cols = ix.cols
	} else if index != "" {
		return fmt.Errorf("reldb: table %q: no index %q", t.schema.Name, index)
	}
	if len(prefix) > len(cols) {
		return fmt.Errorf("reldb: table %q: prefix has %d values, key %q has %d columns",
			t.schema.Name, len(prefix), index, len(cols))
	}
	if ix == nil {
		t.ascendLocked(prefix, fn)
		return nil
	}
	for _, s := range t.blocks {
		if !s.indexSpan(ix, prefix).each(fn) {
			break
		}
	}
	return nil
}

// ascendLocked is Lookup on the primary key.
func (t *Table) ascendLocked(prefix []Value, fn func(b *ColumnBlock, i int) bool) {
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
		spans[0].each(fn)
		return
	}
	for _, run := range keyOrdered(spans, t.pkCols) {
		if !mergeRun(run, t.pkCols, fn) {
			return
		}
	}
}

// indexSpan returns the stretch of a block's permutation for index ix
// whose entries start with prefix. A block whose zone map excludes the
// leading value is skipped before its permutation is ever built.
func (s *segment) indexSpan(ix *tableIndex, prefix []Value) span {
	if len(prefix) > 0 && s.zoneExcludes(ix.cols[0], prefix[0]) {
		return span{}
	}
	perm := s.indexPerm(ix)
	return span{s, &s.ColumnBlock, perm, s.bound(perm, ix.cols, prefix, false), s.bound(perm, ix.cols, prefix, true)}
}

// HasIndex reports whether the table has an index with the given name.
func (t *Table) HasIndex(name string) bool {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	_, ok := t.indexes[name]
	return ok
}
