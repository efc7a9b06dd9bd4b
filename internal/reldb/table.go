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
// Rows live in exactly one place, and every read walks the places in this
// order: the columnar blocks — the immutable segments (flushed rows), the
// sealed tail (a frozen former tail the compactor is encoding) and the
// active tail, an unwritten segment that only grows — and then the row
// set, a row store under B-trees. Only the hot tables have blocks
// (compact.go), and while such a table is sealable its unflushed rows are
// in its tail and its row set is empty; everywhere else, and in a hot
// table a mutation has rehydrated, the row set is the only place.
// The ordered invariant makes the walk a concatenation, never a merge:
// the blocks partition the primary-key space in the order listed, every
// row-set key exceeds every block key, and row IDs ascend the same way. A
// mutation that would break it rehydrates the table first.
type Table struct {
	db     *DB
	schema *Schema
	nextID atomic.Int64 // next row ID / auto primary key; a transaction reserves from it under no lock
	pkCols []int        // column positions of the primary key

	active *rowSet // the row store; also the catalog of the table's indexes

	// Set only on the hot tables (compact.go).
	tail         *segment   // the active columnar tail; nil while the table is row-resident
	sealed       *segment   // nil unless a compaction is in flight
	segs         []*segment // ascending in primary key and in row ID
	blocks       []*segment // segs, sealed, tail: the columnar sources in key order
	segRows      int64      // rows, encoded bytes and decoded bytes in segs
	segBytes     int64
	segDataBytes int64
	stale        []string  // files of rehydrated-away segments the manifest must keep listing
	staleBytes   int64     // until the table is re-segmented or snapshotted: they may be the rows' only durable copy
	frozenMaxID  int64     // highest row ID in segs and sealed
	frozenMaxKey []byte    // highest encoded primary key there; nil when both are empty
	resident     residency // why a hot table is row-resident, if it is
	// pinLogs: the snapshot (or a perftrack.wal from before hot tables had
	// tail logs) holds rows of this table, so a delete of one is durable in
	// a tail log alone and no log of the table may be trimmed until a
	// checkpoint writes a snapshot without them (rule 3).
	pinLogs bool

	transposers sync.Pool // *transposer: reusable blocks for Blocks/Gather
	txBlocks    sync.Pool // *txBlock: reusable private blocks for transactions
}

// residency records the fallback a hot table is in: all of its rows are
// back in the row set.
type residency uint8

const (
	residentMutated   residency = iota + 1 // a columnar row changed; the next seal re-segments
	residentUnordered                      // an insert arrived below the flushed maximum; row-resident until the next checkpoint
)

// rowSet is a row store: rows by ID, the primary B-tree and the
// secondary indexes over them.
type rowSet struct {
	rows      map[int64]Row
	primary   *btree                 // encoded PK -> row ID
	indexes   map[string]*tableIndex // secondary indexes by name
	dataBytes int64                  // approximate stored data volume
	pkBytes   int64                  // approximate primary B-tree key volume
	logs      []*logFile             // hot tables: the tail logs holding this set's records, in replay order
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
	t := &Table{db: db, schema: schema}
	t.nextID.Store(1)
	t.active = t.newRowSet()
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

// newRowSet returns an empty row set carrying the table's indexes.
func (t *Table) newRowSet() *rowSet {
	rs := &rowSet{rows: make(map[int64]Row), primary: newBTree(), indexes: make(map[string]*tableIndex)}
	if t.active != nil {
		for name, ix := range t.active.indexes {
			rs.indexes[name] = &tableIndex{spec: ix.spec, cols: ix.cols, tree: newBTree()}
		}
	}
	return rs
}

// tailsLocked returns the sealed and active columnar tails, whichever
// the table has.
func (t *Table) tailsLocked() []*segment { return t.blocks[len(t.segs):] }

// installLocked makes sealed and tail (nil for none) the table's tails.
func (t *Table) installLocked(sealed, tail *segment) {
	t.sealed, t.tail = sealed, tail
	t.blocks = slices.Clone(t.segs)
	for _, s := range []*segment{sealed, tail} {
		if s != nil {
			t.blocks = append(t.blocks, s)
		}
	}
}

// addIndex builds a secondary index over every row: a B-tree over the
// row set, a lazily sorted permutation per block. Blocks cannot enforce
// uniqueness, so a unique index first makes the table row-resident.
func (t *Table) addIndex(spec IndexSpec) error {
	if _, dup := t.active.indexes[spec.Name]; dup {
		return fmt.Errorf("reldb: table %q: index %q already exists", t.schema.Name, spec.Name)
	}
	if spec.Unique && len(t.blocks) > 0 {
		t.rehydrateLocked(residentUnordered)
	}
	var cols []int
	for _, col := range spec.Columns {
		cols = append(cols, t.schema.ColumnIndex(col))
	}
	built := &tableIndex{spec: spec, cols: cols, tree: newBTree()}
	for id, row := range t.active.rows {
		if err := built.insert(row, id); err != nil {
			return err
		}
	}
	t.active.indexes[spec.Name] = built
	for _, s := range t.blocks {
		s.perms[spec.Name] = new(lazyPerm)
	}
	return nil
}

// dropIndex forgets a secondary index everywhere it is kept.
func (t *Table) dropIndex(name string) {
	delete(t.active.indexes, name)
	for _, s := range t.blocks {
		delete(s.perms, name)
	}
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

// insert stores a row whose primary key pk the caller found unused. A
// unique-index violation leaves the set as it was.
func (rs *rowSet) insert(id int64, row Row, pk []byte) error {
	for _, ix := range rs.indexes {
		if ix.spec.Unique {
			if _, exists := ix.tree.Get(ix.key(row, id)); exists {
				return fmt.Errorf("reldb: unique index %q violated", ix.spec.Name)
			}
		}
	}
	for _, ix := range rs.indexes {
		_ = ix.insert(row, id) // uniqueness was just checked; nothing else fails
	}
	rs.rows[id] = row
	rs.primary.Set(pk, id)
	rs.dataBytes += rowBytes(row)
	rs.pkBytes += int64(len(pk)) + 8
	return nil
}

func (rs *rowSet) remove(id int64, row Row, pk []byte) {
	rs.primary.Delete(pk)
	rs.pkBytes -= int64(len(pk)) + 8
	for _, ix := range rs.indexes {
		ix.remove(row, id)
	}
	delete(rs.rows, id)
	rs.dataBytes -= rowBytes(row)
}

// indexBytes approximates the key bytes held by the set's primary B-tree
// and secondary indexes.
func (rs *rowSet) indexBytes() int64 {
	n := rs.pkBytes
	for _, ix := range rs.indexes {
		n += ix.bytes
	}
	return n
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

// rowRef locates a stored row: in the row set, or at a block position.
type rowRef struct {
	id  int64
	set *rowSet
	seg *segment
	pos int
}

// clone returns a copy of the located row that is the caller's to keep.
func (r rowRef) clone() Row {
	if r.seg != nil {
		return r.seg.row(r.pos)
	}
	return r.set.rows[r.id].Clone()
}

// findIDLocked locates the row with the given row ID.
func (t *Table) findIDLocked(id int64) (rowRef, bool) {
	if n := len(t.blocks); n > 0 && id <= t.blocks[n-1].maxRowID {
		k := sort.Search(n, func(k int) bool { return t.blocks[k].maxRowID >= id })
		pos, ok := t.blocks[k].findID(id)
		return rowRef{id: id, seg: t.blocks[k], pos: pos}, ok
	}
	if _, ok := t.active.rows[id]; ok {
		return rowRef{id: id, set: t.active}, true
	}
	return rowRef{}, false
}

// findPKLocked locates the row with the given encoded primary key: the
// row set first, then the one block that can hold it — the tail for a
// key above the frozen maximum, else a segment or the sealed tail.
func (t *Table) findPKLocked(key []byte) (rowRef, bool) {
	if id, ok := t.active.primary.Get(key); ok {
		return rowRef{id: id, set: t.active}, true
	}
	frozen := t.blocks
	if t.tail != nil {
		frozen = frozen[:len(frozen)-1]
	}
	aboveFrozen := len(frozen) == 0 || bytes.Compare(key, t.frozenMaxKey) > 0
	if aboveFrozen && (t.tail == nil || t.tail.rows == 0) {
		return rowRef{}, false
	}
	vals, err := DecodeKey(key)
	if err != nil || len(vals) != len(t.pkCols) {
		return rowRef{}, false
	}
	s := t.tail
	if !aboveFrozen {
		k := sort.Search(len(frozen), func(k int) bool { return frozen[k].cmpTuple(t.pkCols, frozen[k].top, vals) >= 0 })
		if k == len(frozen) {
			return rowRef{}, false
		}
		s = frozen[k]
	}
	pos, ok := s.findPK(t.pkCols, vals)
	if !ok {
		return rowRef{}, false
	}
	return rowRef{id: s.rowIDs[pos], seg: s, pos: pos}, true
}

// admitLocked runs the two checks on a new row that span the whole
// table: its primary key pk is unused, and neither its row ID nor its key
// falls inside the frozen range — which would break the ordered
// invariant, so the table rehydrates first.
func (t *Table) admitLocked(id int64, pk []byte, row Row) error {
	if _, exists := t.findPKLocked(pk); exists {
		return fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
	}
	if t.frozenMaxKey != nil {
		if id <= t.frozenMaxID {
			t.rehydrateLocked(residentMutated)
		} else if bytes.Compare(pk, t.frozenMaxKey) < 0 {
			t.rehydrateLocked(residentUnordered)
		}
	}
	return nil
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

// insertAtLocked stores a row under a specific row ID: recovery loading
// a snapshot or replaying a log, and a failed delete put back.
func (t *Table) insertAtLocked(id int64, row Row) (Row, error) {
	if _, exists := t.findIDLocked(id); exists {
		return nil, fmt.Errorf("reldb: table %q: row %d already present", t.schema.Name, id)
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	pk := t.pkKey(row)
	if err := t.admitLocked(id, pk, row); err != nil {
		return nil, err
	}
	if t.tail != nil {
		t.tail.tailAppendRow(t.pkCols, id, row)
	} else if err := t.active.insert(id, row, pk); err != nil {
		return nil, err
	}
	t.advanceID(id + 1)
	return row, nil
}

// advanceID moves the row-ID counter up to next, if it is below.
func (t *Table) advanceID(next int64) {
	for cur := t.nextID.Load(); cur < next && !t.nextID.CompareAndSwap(cur, next); cur = t.nextID.Load() {
	}
}

// mutableLocked returns the stored row with the given ID, rehydrating
// the table first when the row is in a block: columns take no update and
// no delete.
func (t *Table) mutableLocked(id int64) (Row, error) {
	ref, ok := t.findIDLocked(id)
	if !ok {
		return nil, fmt.Errorf("reldb: table %q: no row %d", t.schema.Name, id)
	}
	if ref.seg != nil {
		t.rehydrateLocked(residentMutated)
	}
	return t.active.rows[id], nil
}

func (t *Table) deleteLocked(id int64) (Row, error) {
	row, err := t.mutableLocked(id)
	if err != nil {
		return nil, err
	}
	t.active.remove(id, row, t.pkKey(row))
	return row, nil
}

// updateLocked replaces a row: recovery replaying an update record,
// which a directory written before the engine stopped taking updates can
// hold. Like every replayed record it is truth: no foreign key is
// probed.
func (t *Table) updateLocked(id int64, row Row) (Row, error) {
	old, err := t.mutableLocked(id)
	if err != nil {
		return nil, err
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return nil, err
	}
	newPK, oldPK := t.pkKey(row), t.pkKey(old)
	if !bytes.Equal(newPK, oldPK) {
		if _, exists := t.findPKLocked(newPK); exists {
			return nil, fmt.Errorf("reldb: table %q: duplicate primary key %s", t.schema.Name, row)
		}
		if t.frozenMaxKey != nil && bytes.Compare(newPK, t.frozenMaxKey) < 0 {
			t.rehydrateLocked(residentUnordered)
		}
	}
	t.active.remove(id, old, oldPK)
	if err := t.active.insert(id, row, newPK); err != nil {
		_ = t.active.insert(id, old, oldPK) // puts back exactly what was just removed
		return nil, err
	}
	return old, nil
}

// rehydrateLocked folds the blocks back into one row set — the single
// fallback for a mutation columns cannot absorb (an update or delete of a
// row in a block, a row ID or key inside the frozen range, a unique
// index). It builds a fresh set and leaves the blocks untouched, so an
// in-flight compaction (which will find its sealed tail gone and discard
// its work) and an open BlockScan keep reading a consistent image. The
// segment files stay in the manifest as stale: since the last checkpoint
// truncated the WAL they may be the only durable copy of their rows, and
// recovery, replaying the same mutation over them, rehydrates the same
// way.
func (t *Table) rehydrateLocked(why residency) {
	fresh := t.newRowSet()
	t.ascendLocked(nil, func(id int64, row Row) bool {
		// Keys arrive ascending and unique, and a table with blocks has no
		// unique index, so the insert cannot fail.
		_ = fresh.insert(id, row, t.pkKey(row))
		return true
	})
	for _, s := range t.segs {
		t.stale, t.staleBytes = append(t.stale, s.file), t.staleBytes+s.sizeOn
	}
	// Rule 2: the fresh set inherits the logs of the tails it folds — their
	// rows are in no segment yet, and the mutation that caused this is about
	// to be logged behind them.
	fresh.logs = t.logsLocked()
	t.segs, t.segRows, t.segBytes, t.segDataBytes = nil, 0, 0, 0
	t.active = fresh
	t.installLocked(nil, nil)
	t.frozenMaxID, t.frozenMaxKey = 0, nil
	t.resident = why
}

// logOwnersLocked returns the tail-log lists of everything that owns
// tail logs, in replay order: the sealed tail, the active one, the row
// set.
func (t *Table) logOwnersLocked() []*[]*logFile {
	owners := make([]*[]*logFile, 0, 3)
	for _, s := range t.tailsLocked() {
		owners = append(owners, &s.logs)
	}
	return append(owners, &t.active.logs)
}

// logsLocked returns the tail logs the table's unflushed rows own, in
// replay order.
func (t *Table) logsLocked() []*logFile {
	var logs []*logFile
	for _, owned := range t.logOwnersLocked() {
		logs = append(logs, *owned...)
	}
	return logs
}

// activeLogsLocked returns the tail-log list of whichever holds the
// table's next row.
func (t *Table) activeLogsLocked() *[]*logFile {
	if t.tail != nil {
		return &t.tail.logs
	}
	return &t.active.logs
}

// unsealedLocked counts the rows of the active tail, whichever form it
// has.
func (t *Table) unsealedLocked() int64 {
	if t.tail != nil {
		return int64(t.tail.rows)
	}
	return int64(len(t.active.rows))
}

// lenLocked counts the table's rows wherever they live.
func (t *Table) lenLocked() int64 {
	n := t.segRows + int64(len(t.active.rows))
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
	ref, ok := t.findPKLocked(EncodeKey(nil, key...))
	if !ok {
		return nil, 0, false
	}
	return ref.clone(), ref.id, true
}

// prefixRange turns a key prefix into the half-open encoded range that
// holds exactly the keys starting with it (nil, nil for an empty prefix).
func prefixRange(prefix []Value) (lo, hi []byte) {
	if len(prefix) == 0 {
		return nil, nil
	}
	lo = EncodeKey(nil, prefix...)
	return lo, prefixUpperBound(lo)
}

// ascendLocked visits the rows whose leading primary-key columns equal
// prefix (every row when it is empty) in primary-key order: the blocks,
// binary-searched, then the row set. A row built from a block is the
// visitor's to keep; a stored row must not be mutated.
func (t *Table) ascendLocked(prefix []Value, fn func(id int64, row Row) bool) {
	k := 0
	if len(prefix) > 0 {
		k = sort.Search(len(t.blocks), func(k int) bool {
			s := t.blocks[k]
			return s.rows == 0 || s.cmpTuple(t.pkCols, s.top, prefix) >= 0
		})
	}
	for ; k < len(t.blocks); k++ {
		s := t.blocks[k]
		perm := s.pkPerm(t.pkCols)
		to := s.bound(perm, t.pkCols, prefix, true)
		if !s.eachRow(perm, s.bound(perm, t.pkCols, prefix, false), to, fn) || to < s.rows {
			return // stopped, or past the prefix: every later key is larger still
		}
	}
	lo, hi := prefixRange(prefix)
	t.active.walk("", lo, hi, fn)
}

// walk ascends [lo, hi) of the set's primary B-tree — of its named
// secondary index when index is not "" — handing fn every entry's stored
// row until fn returns false, which walk then returns too.
func (rs *rowSet) walk(index string, lo, hi []byte, fn func(id int64, row Row) bool) bool {
	more := true
	tree := rs.primary
	if index != "" {
		tree = rs.indexes[index].tree
	}
	tree.Ascend(lo, hi, func(_ []byte, id int64) bool {
		more = fn(id, rs.rows[id])
		return more
	})
	return more
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

// indexVisitLocked visits the entries of one secondary index with
// encoded key in [lo, hi): span gives each block's matching stretch of
// its sorted permutation, the row set walks its B-tree. Row IDs ascend
// from source to source, so when every match shares one index value
// (concat) the sources' runs concatenate into global (value, row ID)
// order; otherwise the matches are gathered and sorted by key.
func (t *Table) indexVisitLocked(ix *tableIndex, lo, hi []byte, concat bool,
	span func(*segment) (perm []int32, from, to int), fn func(id int64, row Row) bool) {
	type hit struct {
		key []byte
		id  int64
		row Row
	}
	var hits []hit
	visit := fn
	if !concat && len(t.blocks)+min(len(t.active.rows), 1) > 1 {
		visit = func(id int64, row Row) bool {
			hits = append(hits, hit{ix.key(row, id), id, row})
			return true
		}
	}
	for _, s := range t.blocks {
		if perm, from, to := span(s); !s.eachRow(perm, from, to, visit) {
			return
		}
	}
	if !t.active.walk(ix.spec.Name, lo, hi, visit) {
		return
	}
	sort.Slice(hits, func(a, b int) bool { return bytes.Compare(hits[a].key, hits[b].key) < 0 })
	for _, h := range hits {
		if !fn(h.id, h.row) {
			return
		}
	}
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
// values, in index order.
func (t *Table) indexScanLocked(ix *tableIndex, prefix []Value, fn func(id int64, row Row) bool) {
	lo, hi := prefixRange(prefix)
	t.indexVisitLocked(ix, lo, hi, len(prefix) == len(ix.cols), func(s *segment) ([]int32, int, int) {
		return s.equalSpan(ix, prefix)
	}, fn)
}

// indexLocked checks an index scan's arguments.
func (t *Table) indexLocked(index string, prefix []Value) (*tableIndex, error) {
	ix, ok := t.active.indexes[index]
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
// order, and no Row is built for a columnar row. The pr-filter's two
// link-table scans, half of what a cold query costs, read this way.
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
		for _, i := range perm[from:to] {
			if !fn(s.rowIDs[i], s.cols[col].ints[i]) {
				return nil
			}
		}
	}
	lo, hi := prefixRange(key)
	t.active.walk(index, lo, hi, func(id int64, row Row) bool { return fn(id, row[col].i) })
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

// IndexRange visits rows whose single-column index value v satisfies
// lo <= v < hi (NULL bounds mean unbounded).
func (t *Table) IndexRange(index string, lo, hi Value, fn func(id int64, row Row) bool) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	ix, err := t.indexLocked(index, nil)
	if err != nil {
		return err
	}
	var loKey, hiKey []byte
	if !lo.IsNull() {
		loKey = EncodeKey(nil, lo)
	}
	if !hi.IsNull() {
		hiKey = EncodeKey(nil, hi)
	}
	t.indexVisitLocked(ix, loKey, hiKey, false, func(s *segment) ([]int32, int, int) {
		perm := s.indexPerm(ix)
		from, to := 0, s.rows
		if !lo.IsNull() {
			from = s.bound(perm, ix.cols[:1], []Value{lo}, false)
		}
		if !hi.IsNull() {
			to = s.bound(perm, ix.cols[:1], []Value{hi}, false)
		}
		return perm, from, max(from, to)
	}, fn)
	return nil
}

// HasIndex reports whether the table has an index with the given name.
func (t *Table) HasIndex(name string) bool {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	_, ok := t.active.indexes[name]
	return ok
}

// IndexOnColumns returns the name of an index whose leading columns equal
// cols, preferring unique indexes, or "" if none exists.
func (t *Table) IndexOnColumns(cols ...string) string {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	indexes := t.active.indexes
	best := ""
	for name, ix := range indexes {
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
		if best == "" || (ix.spec.Unique && !indexes[best].spec.Unique) ||
			(ix.spec.Unique == indexes[best].spec.Unique && name < best) {
			best = name
		}
	}
	return best
}
