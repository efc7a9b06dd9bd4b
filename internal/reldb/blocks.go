package reldb

import (
	"fmt"
	"math"
)

// The block source: the one read shape every bulk consumer of a table
// sees, on every engine. Table.Blocks opens an inclusive range of
// first-primary-key values and yields ColumnBlocks in ascending PK
// order — first the immutable segment blocks whose zone maps intersect
// the range (none on mem, before the first compaction, or while the
// segment view is dirty or unordered), then the B-tree rows no segment covers, transposed into a
// reusable block of up to blockRows rows. Table.Gather transposes an
// ascending row-ID list the same way. Consumers never learn which
// storage shape a block came from.

// blockRows is the transposer's window: B-tree rows are handed out in
// column-major blocks of at most this many rows.
const blockRows = 4096

// ColumnBlock is a run of rows laid out column-major: a whole decoded
// segment, or one window of transposed B-tree rows. Callers must not
// mutate the slices it hands out.
type ColumnBlock struct {
	rows   int
	rowIDs []int64
	cols   []colVec
	zones  []zoneMap
}

// Len reports the number of rows in the block.
func (b *ColumnBlock) Len() int { return b.rows }

// RowIDs returns the block's row-ID column.
func (b *ColumnBlock) RowIDs() []int64 { return b.rowIDs }

// Int64s returns an integer column, or nil for other kinds.
func (b *ColumnBlock) Int64s(col int) []int64 {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].ints
}

// Float64s returns a float column, or nil for other kinds.
func (b *ColumnBlock) Float64s(col int) []float64 {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].floats
}

// Nulls returns the column's NULL bitmap, or nil when it has no NULLs.
func (b *ColumnBlock) Nulls(col int) []bool {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].nulls
}

// ZoneInt64 returns an integer column's zone map (min/max over non-null
// values), or ok=false when the column has no valid zone. Group-by
// kernels use it to decide whether a block fits their dense key space.
func (b *ColumnBlock) ZoneInt64(col int) (min, max int64, ok bool) {
	if col < 0 || col >= len(b.zones) {
		return 0, 0, false
	}
	z := b.zones[col]
	return z.minI, z.maxI, z.valid && b.cols[col].kind == KindInt
}

// resize returns s with length n, reusing its storage when it fits.
// Contents are stale: callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset shapes the block for n rows of schema, reusing column storage
// from any previous use and dropping its NULL bitmaps; fill then writes
// every value and zone.
func (b *ColumnBlock) reset(schema *Schema, n int) error {
	b.rows = n
	b.rowIDs = resize(b.rowIDs, n)
	if len(b.cols) != len(schema.Columns) {
		b.cols = make([]colVec, len(schema.Columns))
		b.zones = make([]zoneMap, len(schema.Columns))
	}
	for ci, col := range schema.Columns {
		cv := &b.cols[ci]
		cv.kind, cv.nulls = col.Type, nil
		switch col.Type {
		case KindInt:
			cv.ints = resize(cv.ints, n)
		case KindFloat:
			cv.floats = resize(cv.floats, n)
		case KindString:
			cv.strs = resize(cv.strs, n)
		case KindBool:
			cv.bools = resize(cv.bools, n)
		default:
			return fmt.Errorf("reldb: table %q: column %q has unsupported kind %v", schema.Name, col.Name, col.Type)
		}
	}
	return nil
}

// fill lays rows out column-major — rows[i] lands at position i, which
// rowIDs must already name — then computes the zone maps. The copy
// walks each row once (its values are contiguous in memory); the zones
// are a second, sequential pass over each finished column. NULLs leave
// a zero placeholder in the value stream.
func (b *ColumnBlock) fill(rows []Row) {
	cols := b.cols
	for i, row := range rows {
		for ci := range cols {
			cv, v := &cols[ci], &row[ci]
			switch cv.kind {
			case KindInt:
				cv.ints[i] = v.i
			case KindFloat:
				cv.floats[i] = v.Float64()
			case KindString:
				cv.strs[i] = v.s
			case KindBool:
				cv.bools[i] = v.b
			}
			if v.kind == KindNull {
				if cv.nulls == nil {
					cv.nulls = make([]bool, len(b.rowIDs))
				}
				cv.nulls[i] = true
			}
		}
	}
	for ci := range cols {
		b.zones[ci] = cols[ci].zone()
	}
}

// zone computes the min/max summary over the column's non-null values.
func (c *colVec) zone() (z zoneMap) {
	for i, n := range c.ints {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		if !z.valid || n < z.minI {
			z.minI = n
		}
		if !z.valid || n > z.maxI {
			z.maxI = n
		}
		z.valid = true
	}
	for i, f := range c.floats {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		if !z.valid || f < z.minF {
			z.minF = f
		}
		if !z.valid || f > z.maxF {
			z.maxF = f
		}
		z.valid = true
	}
	return z
}

// transposer stages B-tree rows and, each time blockRows of them have
// gathered, lays them out in one reusable block and hands it to fn. The
// caller holds the DB read lock. Column storage is sized at flush time,
// so a short walk allocates only what it read; transposers are pooled
// per table, so in steady state a walk allocates nothing.
type transposer struct {
	t    *Table
	fn   func(*ColumnBlock) error
	b    ColumnBlock
	ids  []int64
	rows []Row
	err  error
}

// transposer takes a transposer for one walk from the table's pool;
// finish returns it.
func (t *Table) transposer(fn func(*ColumnBlock) error) *transposer {
	tr, _ := t.transposers.Get().(*transposer)
	if tr == nil {
		tr = &transposer{t: t}
	}
	tr.fn, tr.err = fn, nil
	return tr
}

// finish flushes the last partial block, returns the transposer to the
// pool, and reports the first error of the walk.
func (tr *transposer) finish() error {
	err := tr.flush()
	tr.fn = nil
	tr.t.transposers.Put(tr)
	return err
}

// add stages one row, flushing a full block; false stops the walk.
func (tr *transposer) add(id int64, row Row) bool {
	tr.ids, tr.rows = append(tr.ids, id), append(tr.rows, row)
	if len(tr.rows) == blockRows {
		tr.flush()
	}
	return tr.err == nil
}

// flush transposes the staged rows and hands the block to fn. It
// returns the first error of the walk.
func (tr *transposer) flush() error {
	if len(tr.rows) > 0 && tr.err == nil {
		if tr.err = tr.b.reset(tr.t.schema, len(tr.rows)); tr.err == nil {
			copy(tr.b.rowIDs, tr.ids)
			tr.b.fill(tr.rows)
			tr.err = tr.fn(&tr.b)
		}
	}
	clear(tr.rows) // a pooled transposer must not pin rows deleted later
	tr.ids, tr.rows = tr.ids[:0], tr.rows[:0]
	return tr.err
}

// BlockScan is an opened block source: one table, one inclusive range
// of first-primary-key values.
type BlockScan struct {
	// Segments are the immutable segment blocks whose zone maps
	// intersect the range, in ascending PK order. Each is a whole
	// segment — pruned, not trimmed, so it may hold rows outside the
	// range — stays valid for the life of the scan, and may be read
	// from several goroutines.
	Segments []*ColumnBlock
	// Pruned counts segments skipped by their zone maps, and Bytes the
	// decoded bytes the surviving ones hold.
	Pruned int
	Bytes  int64

	t         *Table
	lo, hi    int64 // first-PK range left for the B-tree
	watermark int64 // row IDs at or below it are segment-resident
}

// Blocks opens the block source for first-primary-key values in
// [lo, hi]. The table's first primary-key column must be an integer.
func (t *Table) Blocks(lo, hi int64) (*BlockScan, error) {
	if len(t.pkCols) == 0 || t.schema.Columns[t.pkCols[0]].Type != KindInt {
		return nil, fmt.Errorf("reldb: table %q: block scans need an integer leading primary-key column", t.schema.Name)
	}
	bs := &BlockScan{t: t, lo: lo, hi: hi}
	if st := t.db.seg; st != nil {
		if v, ok := st.view(t.schema.Name); ok {
			bs.Segments, bs.Pruned, bs.Bytes = v.blocksPKRange(lo, hi)
			// Under the ordered invariant every unflushed row's PK is at
			// least the flushed maximum.
			bs.lo, bs.watermark = max(lo, v.maxPK), v.watermark
		}
	}
	return bs, nil
}

// Segmented reports whether the table had a live segment view when the
// scan opened, i.e. whether Tail covers only the unflushed rows.
func (bs *BlockScan) Segmented() bool { return len(bs.Segments)+bs.Pruned > 0 }

// Each calls fn with every block of the scan in ascending PK order: the
// segment blocks, then Tail's.
func (bs *BlockScan) Each(fn func(*ColumnBlock) error) error {
	for _, b := range bs.Segments {
		if err := fn(b); err != nil {
			return err
		}
	}
	return bs.Tail(fn)
}

// Tail transposes the rows of the range that no segment holds — the
// whole range when the scan is not Segmented — and calls fn with each
// block in ascending PK order. The block is reused: it is valid only
// until fn returns. fn runs under the engine read lock and must not
// write to the engine; a non-nil error stops the walk and is returned.
func (bs *BlockScan) Tail(fn func(*ColumnBlock) error) error {
	if bs.lo > bs.hi {
		return nil
	}
	t := bs.t
	loKey := EncodeKey(nil, Int(bs.lo))
	var hiKey []byte
	if bs.hi < math.MaxInt64 {
		hiKey = EncodeKey(nil, Int(bs.hi+1))
	}
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tr := t.transposer(fn)
	t.primary.Ascend(loKey, hiKey, func(_ []byte, id int64) bool {
		if id <= bs.watermark {
			return true // flushed row at the boundary PK: a segment served it
		}
		return tr.add(id, t.rows[id])
	})
	return tr.finish()
}

// Gather transposes the rows with the given IDs, in the order given
// (ascending, for every caller), under one read lock; missing IDs are
// skipped. fn has the same contract as in BlockScan.Tail.
func (t *Table) Gather(ids []int64, fn func(*ColumnBlock) error) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tr := t.transposer(fn)
	for _, id := range ids {
		if row, ok := t.rows[id]; ok && !tr.add(id, row) {
			break
		}
	}
	return tr.finish()
}
