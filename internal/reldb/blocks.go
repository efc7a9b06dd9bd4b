package reldb

import (
	"fmt"
	"slices"
)

// The block source: the one read shape every bulk consumer of a table
// sees, on every engine. Table.Blocks opens an inclusive range of
// first-primary-key values and yields ColumnBlocks in ascending PK
// order — first the immutable segment blocks whose zone maps intersect
// the range (none before the first compaction), then the rest: a columnar
// tail as a view pinned at the length it had when the scan opened, and
// runs whose keys overlap merged, transposed into a reusable block of up
// to blockRows rows. Table.Gather transposes an ascending row-ID list the
// same way, copying each row's values straight out of its block.
// Consumers never learn which block a row came from.

// blockRows is the transposer's window: merged and gathered rows are
// handed out in column-major blocks of at most this many rows.
const blockRows = 4096

// ColumnBlock is a run of rows laid out column-major: a whole decoded
// segment, a view of a columnar tail, or one window of transposed rows.
// Callers must not mutate the slices it hands out.
type ColumnBlock struct {
	rows   int
	rowIDs IntVec
	cols   []colVec
	zones  []zoneMap
}

// Len reports the number of rows in the block.
func (b *ColumnBlock) Len() int { return b.rows }

// IDs returns the block's row-ID column.
func (b *ColumnBlock) IDs() *IntVec { return &b.rowIDs }

// Ints returns an integer column, or nil for other kinds.
func (b *ColumnBlock) Ints(col int) *IntVec {
	if col < 0 || col >= len(b.cols) || b.cols[col].kind != KindInt {
		return nil
	}
	return &b.cols[col].ints
}

// Float64s returns a float column, or nil for other kinds.
func (b *ColumnBlock) Float64s(col int) []float64 {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].floats
}

// Strings returns a string column, or nil for other kinds.
func (b *ColumnBlock) Strings(col int) []string {
	if col < 0 || col >= len(b.cols) {
		return nil
	}
	return b.cols[col].strs
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

// reset empties the block for rows of schema, keeping column storage
// from any previous use and making room for n rows (exactly n for fresh
// storage, so a resident segment carries no slack).
func (b *ColumnBlock) reset(schema *Schema, n int) error {
	b.rows = 0
	b.rowIDs.reset(n)
	if len(b.cols) != len(schema.Columns) {
		b.cols = make([]colVec, len(schema.Columns))
		b.zones = make([]zoneMap, len(schema.Columns))
	}
	for ci, col := range schema.Columns {
		cv := &b.cols[ci]
		cv.kind, cv.nulls = col.Type, nil
		switch col.Type {
		case KindInt:
			cv.ints.reset(n)
		case KindFloat:
			cv.floats = slices.Grow(cv.floats[:0], n)
		case KindString:
			cv.strs = slices.Grow(cv.strs[:0], n)
		case KindBool:
			cv.bools = slices.Grow(cv.bools[:0], n)
		default:
			return fmt.Errorf("reldb: table %q: column %q has unsupported kind %v", schema.Name, col.Name, col.Type)
		}
	}
	return nil
}

// grow makes room for n more rows in a block at width 8.
func (b *ColumnBlock) grow(n int) {
	b.rowIDs.i64 = slices.Grow(b.rowIDs.i64, n)
	for ci := range b.cols {
		switch c := &b.cols[ci]; c.kind {
		case KindInt:
			c.ints.i64 = slices.Grow(c.ints.i64, n)
		case KindFloat:
			c.floats = slices.Grow(c.floats, n)
		case KindString:
			c.strs = slices.Grow(c.strs, n)
		case KindBool:
			c.bools = slices.Grow(c.bools, n)
		}
	}
}

// push appends one cell to a column that holds n so far. A NULL leaves a
// zero placeholder in the value stream; the column's first one sizes the
// NULL bitmap to the value stream's capacity, so a block of a few rows
// stays a few rows.
func (c *colVec) push(v Value, n int) {
	var capacity int
	switch c.kind {
	case KindInt:
		c.ints.push(v.i)
		capacity = cap(c.ints.i64)
	case KindFloat:
		c.floats = append(c.floats, v.Float64())
		capacity = cap(c.floats)
	case KindString:
		c.strs = append(c.strs, v.s)
		capacity = cap(c.strs)
	case KindBool:
		c.bools = append(c.bools, v.b)
		capacity = cap(c.bools)
	}
	if v.kind == KindNull {
		if c.nulls == nil {
			c.nulls = make([]bool, n, capacity)
		}
		c.nulls = append(c.nulls, true)
	} else if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// appendRow adds one row, laid out column-major.
func (b *ColumnBlock) appendRow(id int64, row Row) {
	for ci := range b.cols {
		b.cols[ci].push(row[ci], b.rows)
	}
	b.rowIDs.push(id)
	b.rows++
}

// appendFrom adds row i of src, column to column, without building a Row.
func (b *ColumnBlock) appendFrom(src *ColumnBlock, i int) {
	for ci := range b.cols {
		b.cols[ci].push(src.cell(ci, i), b.rows)
	}
	b.rowIDs.push(src.rowIDs.At(i))
	b.rows++
}

// finish computes the zone maps of a block whose rows are all appended.
func (b *ColumnBlock) finish() {
	for ci := range b.cols {
		b.zones[ci] = b.cols[ci].zone()
	}
}

// appendBlock adds every row of src, column to column, and widens the
// zone maps by src's, which must be computed. Rows already in b do not
// move: a view of them stays valid.
func (b *ColumnBlock) appendBlock(src *ColumnBlock) {
	for ci := range b.cols {
		b.cols[ci].appendVec(&src.cols[ci], b.rows, src.rows)
		b.zones[ci].widen(src.zones[ci])
	}
	b.rowIDs.appendVec(&src.rowIDs)
	b.rows += src.rows
}

// appendVec appends the m values of src to a column that holds n.
func (c *colVec) appendVec(src *colVec, n, m int) {
	c.ints.appendVec(&src.ints)
	c.floats = append(c.floats, src.floats...)
	c.strs = append(c.strs, src.strs...)
	c.bools = append(c.bools, src.bools...)
	switch {
	case src.nulls != nil:
		if c.nulls == nil {
			c.nulls = make([]bool, n, n+m)
		}
		c.nulls = append(c.nulls, src.nulls...)
	case c.nulls != nil:
		c.nulls = append(c.nulls, make([]bool, m)...)
	}
}

// widen extends the zone to cover o. A NaN bound poisons the float zone,
// which then excludes nothing; finish recomputes it exactly.
func (z *zoneMap) widen(o zoneMap) {
	switch {
	case !o.valid:
	case !z.valid:
		*z = o
	default:
		z.minI, z.maxI = min(z.minI, o.minI), max(z.maxI, o.maxI)
		z.minF, z.maxF = min(z.minF, o.minF), max(z.maxF, o.maxF)
	}
}

// cellZone is the zone of one value in a column of the given kind.
func cellZone(kind Kind, v Value) zoneMap {
	switch {
	case v.kind == KindNull:
	case kind == KindInt:
		return zoneMap{valid: true, minI: v.i, maxI: v.i}
	case kind == KindFloat:
		return zoneMap{valid: true, minF: v.Float64(), maxF: v.Float64()}
	}
	return zoneMap{}
}

// view returns rows [from, to) of the block as a block of its own,
// sharing their storage. The zone maps are the whole block's: bounds on
// the view's values, not tight ones. Rows appended to b later are not
// part of the view and do not disturb it.
func (b *ColumnBlock) view(from, to int) ColumnBlock {
	v := ColumnBlock{rows: to - from, rowIDs: b.rowIDs.slice(from, to), cols: make([]colVec, len(b.cols)), zones: slices.Clone(b.zones)}
	for ci := range b.cols {
		c, vc := &b.cols[ci], &v.cols[ci]
		vc.kind = c.kind
		switch c.kind {
		case KindInt:
			vc.ints = c.ints.slice(from, to)
		case KindFloat:
			vc.floats = c.floats[from:to:to]
		case KindString:
			vc.strs = c.strs[from:to:to]
		case KindBool:
			vc.bools = c.bools[from:to:to]
		}
		if c.nulls != nil {
			vc.nulls = c.nulls[from:to:to]
		}
	}
	return v
}

// narrowed returns a copy of a block no row will be added to, its integer
// vectors at their least widths and no vector keeping an append's slack.
// A vector already narrow is shared, not copied.
func (b *ColumnBlock) narrowed() ColumnBlock {
	out := ColumnBlock{rows: b.rows, rowIDs: b.rowIDs.narrowed(), cols: make([]colVec, len(b.cols)), zones: slices.Clone(b.zones)}
	for ci := range b.cols {
		c := &b.cols[ci]
		out.cols[ci] = colVec{kind: c.kind, ints: c.ints.narrowed(), floats: slices.Clone(c.floats),
			strs: slices.Clone(c.strs), codes: slices.Clone(c.codes), words: c.words,
			bools: slices.Clone(c.bools), nulls: slices.Clone(c.nulls)}
	}
	return out
}

// cell returns the value at row i of column ci.
func (b *ColumnBlock) cell(ci, i int) Value {
	c := &b.cols[ci]
	if c.nulls != nil && c.nulls[i] {
		return Null()
	}
	switch c.kind {
	case KindInt:
		return Int(c.ints.At(i))
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.strs[i])
	case KindBool:
		return Bool(c.bools[i])
	}
	return Null()
}

// Row builds row i as a Row that is the caller's to keep. With a slab it
// is carved from *slab, which, when it has no room for the row, is first
// replaced by a new one for up to 256 rows — as many as the block holds
// from i on — so a caller building a run of rows through one slab pays an
// allocation per slab, not per row; each row pins its slab. A nil slab
// allocates the row alone.
func (b *ColumnBlock) Row(i int, slab *[]Value) Row {
	n := len(b.cols)
	var row Row
	if slab == nil {
		row = make(Row, n)
	} else {
		if len(*slab) < n {
			*slab = make([]Value, max(min(b.rows-i, 256), 1)*n)
		}
		row, *slab = Row((*slab)[:n:n]), (*slab)[n:]
	}
	for ci := range row {
		row[ci] = b.cell(ci, i)
	}
	return row
}

// zone computes the min/max summary over the column's non-null values.
func (c *colVec) zone() (z zoneMap) {
	if v := &c.ints; v.n > 0 && v.w == 8 && c.nulls == nil { // a transaction's block
		return zoneMap{minI: slices.Min(v.i64[:v.n]), maxI: slices.Max(v.i64[:v.n]), valid: true}
	}
	for i := 0; i < c.ints.Len(); i++ {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		n := c.ints.At(i)
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

// transposer lays rows out in one reusable block as they arrive and,
// each time blockRows of them have gathered, hands the block to fn. The
// caller holds the DB read lock. Transposers are pooled per table, so in
// steady state a walk allocates nothing.
type transposer struct {
	t   *Table
	fn  func(*ColumnBlock) error
	b   ColumnBlock
	err error
}

// transposer takes a transposer for one walk from the table's pool;
// finish returns it.
func (t *Table) transposer(fn func(*ColumnBlock) error) *transposer {
	tr, _ := t.transposers.Get().(*transposer)
	if tr == nil {
		tr = &transposer{t: t}
	}
	tr.fn, tr.err = fn, tr.b.reset(t.schema, 0)
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

// add takes row i of block b, column to column, flushing a full block;
// false stops the walk.
func (tr *transposer) add(b *ColumnBlock, i int) bool {
	if tr.err == nil {
		tr.b.appendFrom(b, i)
	}
	if tr.b.rows == blockRows {
		tr.flush()
	}
	return tr.err == nil
}

// flush hands the gathered rows to fn and empties the block. It returns
// the first error of the walk.
func (tr *transposer) flush() error {
	if tr.b.rows > 0 && tr.err == nil {
		tr.b.finish()
		if tr.err = tr.fn(&tr.b); tr.err == nil {
			tr.err = tr.b.reset(tr.t.schema, 0)
		}
	}
	return tr.err
}

// span is the stretch [from, to) of a block's primary-key order that a
// read wants: positions perm[from:to], or from..to-1 when perm is nil.
type span struct {
	s        *segment
	b        *ColumnBlock // s's rows, or a view pinning those of a tail
	perm     []int32
	from, to int
}

func (sp span) first() int { return at(sp.perm, sp.from) }
func (sp span) last() int  { return at(sp.perm, sp.to-1) }

// keyOrdered drops the empty spans and groups the rest into runs in
// ascending key order: spans whose key ranges overlap share a run, which
// a reader merges (mergeRun), and a span that overlaps none — every span,
// on a table loaded a document at a time — is a run of its own, read as
// it lies.
func keyOrdered(spans []span, pkCols []int) [][]span {
	spans = slices.DeleteFunc(spans, func(sp span) bool { return sp.from >= sp.to })
	slices.SortFunc(spans, func(x, y span) int { return cmpRows(x.b, x.first(), y.b, y.first(), pkCols) })
	var runs [][]span
	var top span // the span holding the greatest key of the current run
	for i, sp := range spans {
		if i > 0 && cmpRows(sp.b, sp.first(), top.b, top.last(), pkCols) <= 0 {
			runs[len(runs)-1] = append(runs[len(runs)-1], sp)
		} else {
			runs = append(runs, []span{sp})
		}
		if i == 0 || cmpRows(sp.b, sp.last(), top.b, top.last(), pkCols) > 0 {
			top = sp
		}
	}
	return runs
}

// each hands fn the span's rows in its order, as a block and a position,
// until fn returns false, which each then returns too.
func (sp span) each(fn func(b *ColumnBlock, i int) bool) bool {
	for p := sp.from; p < sp.to; p++ {
		if !fn(sp.b, at(sp.perm, p)) {
			return false
		}
	}
	return true
}

// mergeRun hands fn the rows of a run's spans in ascending key order, as
// a block and a position, until fn returns false, which mergeRun then
// returns too. No key is in two spans.
func mergeRun(run []span, pkCols []int, fn func(b *ColumnBlock, i int) bool) bool {
	if len(run) == 1 {
		return run[0].each(fn)
	}
	next := make([]int, len(run))
	for k := range run {
		next[k] = run[k].from
	}
	for {
		best, bi := -1, 0
		for k, sp := range run {
			if next[k] == sp.to {
				continue
			}
			if i := at(sp.perm, next[k]); best < 0 || cmpRows(sp.b, i, run[best].b, bi, pkCols) < 0 {
				best, bi = k, i
			}
		}
		if best < 0 {
			return true
		}
		next[best]++
		if !fn(run[best].b, bi) {
			return false
		}
	}
}

// BlockScan is an opened block source: one table, one inclusive range
// of first-primary-key values.
type BlockScan struct {
	// Segments are immutable segment blocks whose zone maps intersect the
	// range, in ascending PK order: the leading ones, up to the first
	// block that is not a key-ordered segment overlapping no other. Each
	// is a whole segment — pruned, not trimmed, so it may hold rows
	// outside the range — stays valid for the life of the scan, and may
	// be read from several goroutines.
	Segments []*ColumnBlock
	// Pruned counts segments skipped by their zone maps, and Bytes the
	// decoded bytes the surviving ones hold.
	Pruned int
	Bytes  int64

	t      *Table
	lo, hi int64    // first-PK range
	rest   [][]span // the runs after Segments when the scan opened, trimmed to the range
}

// Blocks opens the block source for first-primary-key values in
// [lo, hi]. The table's first primary-key column must be an integer.
func (t *Table) Blocks(lo, hi int64) (*BlockScan, error) {
	if len(t.pkCols) == 0 || t.schema.Columns[t.pkCols[0]].Type != KindInt {
		return nil, fmt.Errorf("reldb: table %q: block scans need an integer leading primary-key column", t.schema.Name)
	}
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	bs := &BlockScan{t: t, lo: lo, hi: hi}
	first, bounds := t.pkCols[:1], [2][]Value{{Int(lo)}, {Int(hi)}}
	var spans []span
	for k, s := range t.blocks {
		if z := s.zones[t.pkCols[0]]; s.rows == 0 || z.maxI < lo || z.minI > hi {
			if k < len(t.segs) {
				bs.Pruned++
			}
			continue
		}
		b := &s.ColumnBlock
		if s == t.tail {
			v := s.view(0, s.rows)
			b = &v
		}
		perm := s.pkPerm(t.pkCols)
		spans = append(spans, span{s, b, perm, b.bound(perm, first, bounds[0], false), b.bound(perm, first, bounds[1], true)})
	}
	bs.rest = keyOrdered(spans, t.pkCols)
	for ; len(bs.rest) > 0; bs.rest = bs.rest[1:] {
		sp := bs.rest[0][0]
		if len(bs.rest[0]) > 1 || sp.perm != nil || !slices.Contains(t.segs, sp.s) {
			break
		}
		bs.Bytes += sp.s.decodedBytes()
		bs.Segments = append(bs.Segments, sp.b)
	}
	return bs, nil
}

// Segmented reports whether the table had segments when the scan
// opened, i.e. whether Tail leaves some of them out.
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

// Tail calls fn with the rows of the range that Segments do not hold —
// the whole range when the scan is not Segmented — block by block in
// ascending PK order: a block whose rows lie in key order and overlap no
// other's as a view of them, trimmed to the range, with no copy and no
// lock; a block whose rows do not, and a run of blocks whose keys
// overlap, transposed into a reusable block. A block sealed, flushed or
// replaced since the scan opened is still read as it was then, so
// Segments plus Tail see each row exactly once. A block is valid only
// until fn returns; a non-nil error stops the walk and is returned.
func (bs *BlockScan) Tail(fn func(*ColumnBlock) error) error {
	if bs.lo > bs.hi {
		return nil
	}
	t := bs.t
	for _, run := range bs.rest {
		if sp := run[0]; len(run) == 1 && sp.perm == nil {
			v := sp.b.view(sp.from, sp.to)
			if err := fn(&v); err != nil {
				return err
			}
			continue
		}
		tr := t.transposer(fn)
		mergeRun(run, t.pkCols, tr.add)
		if err := tr.finish(); err != nil {
			return err
		}
	}
	return nil
}

// Gather transposes the rows with the given IDs, in the order given
// (ascending, for every caller), under one read lock; missing IDs are
// skipped. fn runs under the engine read lock and must not write to the
// engine; a block is valid only until fn returns.
func (t *Table) Gather(ids []int64, fn func(*ColumnBlock) error) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	tr := t.transposer(fn)
	for _, id := range ids {
		if ref, ok := t.findIDLocked(id); ok && !tr.add(&ref.seg.ColumnBlock, ref.pos) {
			break
		}
	}
	return tr.finish()
}
