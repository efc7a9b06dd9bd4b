package reldb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Columnar segment files. A segment is an immutable, PK-sorted,
// column-major flush of one table's recent rows, written by the engine's
// background compactor. On-disk layout (format 2):
//
//	8 bytes   magic "PTSEG002"
//	body      row-ID stream, then one block per column
//	footer    payload (below)
//	uint32    footer length (little endian)
//	uint32    CRC-32 (IEEE) of the footer payload
//	8 bytes   magic again (torn-tail sentinel)
//
// The footer carries the table name, row count, row-ID and first-key
// ranges, the row-ID block's extent, and per column its kind, body
// extent and zone map (min/max); last, a CRC over the whole body. So a
// segment is either verifiably intact or rejected as a unit.
//
// A column block is a NULL flag byte (then a bitmap, 1 bit per row, when
// the column holds NULLs; a NULL keeps a zero placeholder) and its values:
//
//	int64   one integer stream (appendInts)
//	float64 a byte e ≤ 22, then the mantissas d with d/10^e bit-equal to
//	        each value as an integer stream; or 0xff, then raw 8-byte values
//	string  the dictionary (count, then each word once), then the codes as
//	        an integer stream
//	bool    bitmap, 1 bit per row
//
// An integer stream is the first value and the least delta as varints, a
// bit width, and each delta less the least one bit-packed at that width.
// Format 1 ("PTSEG001": zig-zag varint deltas, uvarint codes, raw floats)
// is read, never written.

const (
	segMagic   = "PTSEG002"
	segMagicV1 = "PTSEG001"
)

// ErrCorruptSegment reports a segment file that failed structural or
// checksum validation (including a torn tail from a crashed write).
var ErrCorruptSegment = errors.New("reldb: corrupt segment file")

// colVec is one decoded, memory-resident column. String columns of a
// segment keep both representations: the expanded strs slice for reads
// and the dictionary form (codes + words) the file encoding stores.
type colVec struct {
	kind   Kind
	ints   IntVec
	floats []float64
	strs   []string
	codes  []uint32 // per-row dictionary code (string columns)
	words  []string // code → string (string columns)
	bools  []bool
	nulls  []bool // true = NULL; nil when the column has no NULLs
}

// zoneMap is the per-column min/max summary used to skip segments whose
// value range cannot intersect a scan predicate.
type zoneMap struct {
	valid      bool
	minI, maxI int64
	minF, maxF float64
}

// segment is a run of one table's rows held column-major, the only
// resident copy of them: its ColumnBlock serves bulk scans as pure slice
// iteration, and point, range and index reads binary-search it —
// directly where the rows lie in the wanted order, else through a
// permutation built on first use.
//
// A segment with a file is immutable and sorted by primary key. One
// without is a tail — the unflushed rows of a table in arrival order,
// which is row-ID order and, for a document load, primary-key order — or
// a replacement: the copy a change to a block leaves in its place, which
// the next pass writes. A tail only grows, by whole appends under the
// engine write lock; nothing in it ever moves, so a view of its first n
// rows stays valid without a lock, and its permutations are extended by
// the appended run, not rebuilt. A tail holds its integers at width 8; a
// block that will not grow again — a sealed tail, a filled replacement,
// a decoded file — holds them at their least widths (IntVec), and
// sealing installs the narrowed copy, which publication then moves as it
// is (compact.go).
type segment struct {
	ColumnBlock
	table    string
	file     string   // on-disk path ("" for not-yet-written)
	replaces []string // unwritten: the files that hold its rows' older image until its own is named
	sizeOn   int64    // encoded (on-disk) size in bytes: its file's, or those it replaces
	minRowID int64
	maxRowID int64
	minPK    int64 // first primary-key column zone (int PKs only)
	maxPK    int64

	// In memory only; a table fills perms when it adopts the segment.
	pkAsc bool                 // positions ascend in primary key: always, once written
	idAsc bool                 // positions ascend in row ID
	top   int                  // position of the greatest primary key; -1 when empty
	low   int                  // position of the least primary key; -1 when empty
	byPK  *lazyPerm            // positions by primary key, unless pkAsc
	byID  *lazyPerm            // positions by row ID, unless idAsc
	perms map[string]*lazyPerm // per secondary index: positions by (index columns, row ID)
	logs  []*logFile           // tails: the tail logs holding these rows' records, in replay order
}

// files returns the files that hold the block's rows: its own, or the
// ones an unwritten replacement replaces.
func (s *segment) files() []string {
	if s.file != "" {
		return []string{s.file}
	}
	return s.replaces
}

// lazyPerm is a permutation of a segment's leading positions, sorted on
// first use by whichever reader gets there first and, over a tail,
// extended by whichever reader first finds it short. A published slice
// is never written again.
type lazyPerm struct {
	mu   sync.Mutex
	perm atomic.Pointer[[]int32]
}

// covered returns the permutation as far as it has been built.
func (lp *lazyPerm) covered() []int32 {
	if p := lp.perm.Load(); p != nil {
		return *p
	}
	return nil
}

// decodedBytes is the block's rows in row form — 8 bytes a row header and
// a value, a string's bytes and 4, 1 a NULL — the logical size of its
// data, and what the scan-bytes histogram counts a full scan of it as.
func (s *segment) decodedBytes() int64 {
	n := int64(s.rows) * 8
	for i := range s.cols {
		c := &s.cols[i]
		nulls := 0
		for _, null := range c.nulls {
			if null {
				nulls++
			}
		}
		n += int64(nulls)
		if c.kind != KindString {
			n += int64(s.rows-nulls) * 8
			continue
		}
		for r, v := range c.strs {
			if c.nulls == nil || !c.nulls[r] {
				n += int64(len(v)) + 4
			}
		}
	}
	return n
}

// residentBytes is what the block's vectors and built permutations take
// in memory, slack included. A string column counts its headers, its
// codes and each dictionary word once — or, without a dictionary (a
// published tail's), each string's bytes.
func (s *segment) residentBytes() int64 {
	n := s.rowIDs.bytes() + s.permBytes()
	for i := range s.cols {
		c := &s.cols[i]
		n += c.ints.bytes() + int64(8*cap(c.floats)+16*cap(c.strs)+4*cap(c.codes)+cap(c.bools)+cap(c.nulls))
		if c.codes == nil {
			for _, v := range c.strs {
				n += int64(len(v))
			}
		}
		for _, w := range c.words {
			n += int64(16 + len(w))
		}
	}
	return n
}

// complete fills in what a segment says of rows that are all appended
// and lie in primary-key order: the zone maps, the row-ID and key ranges,
// the dictionary form of its string columns.
func (s *segment) complete(pkCols []int) {
	s.freeze(pkCols)
	s.minRowID, s.maxRowID = s.rowIDs.minMax()
	s.pkAsc, s.idAsc, s.top, s.low = true, s.rowIDs.sorted(), s.rows-1, 0
	for ci := range s.cols {
		if cv := &s.cols[ci]; cv.kind == KindString {
			cv.buildDict()
		}
	}
}

// freeze computes the exact zone maps of rows that will not be added to,
// and the key zone a block scan prunes by.
func (s *segment) freeze(pkCols []int) {
	s.finish()
	if len(pkCols) > 0 && s.cols[pkCols[0]].kind == KindInt {
		z := s.zones[pkCols[0]]
		s.minPK, s.maxPK = z.minI, z.maxI
	}
}

// newBlock returns an empty block for n rows of the table, whose row IDs
// will all exceed after: a tail, or a replacement being filled.
func (t *Table) newBlock(after int64, n int) *segment {
	s := &segment{table: t.schema.Name, minRowID: math.MaxInt64, maxRowID: after,
		pkAsc: true, idAsc: true, top: -1, low: -1}
	_ = s.reset(t.schema, n) // a validated schema's column kinds all fit a block
	return t.withPerms(s)
}

// withPerms gives a block an unbuilt permutation by primary key, by row
// ID and per secondary index of the table, unless it has them.
func (t *Table) withPerms(s *segment) *segment {
	if s.byPK == nil {
		s.byPK, s.byID = new(lazyPerm), new(lazyPerm)
	}
	if s.perms == nil {
		s.perms = make(map[string]*lazyPerm, len(t.indexes))
		for name := range t.indexes {
			s.perms[name] = new(lazyPerm)
		}
	}
	return s
}

// appended takes note of the rows just added at positions from and up:
// their row-ID range, their least and greatest key, and whether positions
// still ascend in row ID and in primary key — where they do not, reads go
// through a permutation.
func (s *segment) appended(pkCols []int, from int) {
	for i := from; i < s.rows; i++ {
		id := s.rowIDs.At(i)
		if i > 0 && id <= s.rowIDs.At(i-1) {
			s.idAsc = false
		}
		s.minRowID, s.maxRowID = min(s.minRowID, id), max(s.maxRowID, id)
		if s.top < 0 || cmpRows(&s.ColumnBlock, i, &s.ColumnBlock, s.top, pkCols) > 0 {
			s.top = i
		} else {
			s.pkAsc = false
		}
		if s.low < 0 || cmpRows(&s.ColumnBlock, i, &s.ColumnBlock, s.low, pkCols) < 0 {
			s.low = i
		}
	}
}

// tailAppendRow adds one row to a tail.
func (s *segment) tailAppendRow(pkCols []int, id int64, row Row) {
	s.appendRow(id, row)
	for ci := range s.cols {
		s.zones[ci].widen(cellZone(s.cols[ci].kind, row[ci]))
	}
	s.appended(pkCols, s.rows-1)
}

// tailAppendBlock adds a block of rows, its zone maps computed, to a tail.
func (s *segment) tailAppendBlock(pkCols []int, b *ColumnBlock) {
	from := s.rows
	s.appendBlock(b)
	s.appended(pkCols, from)
}

// inKeyOrder returns the block itself when its rows lie in primary-key
// order, else a narrowed copy of them that does: the block a segment file
// holds.
func (s *segment) inKeyOrder(t *Table) (*segment, error) {
	if s.pkAsc {
		return s, nil
	}
	sorted := &segment{table: s.table}
	if err := sorted.reset(t.schema, s.rows); err != nil {
		return nil, err
	}
	for _, p := range s.pkPerm(t.pkCols) {
		sorted.appendFrom(&s.ColumnBlock, int(p))
	}
	sorted.complete(t.pkCols)
	return sorted.narrowed(), nil
}

// narrowed returns a copy of a block no row will be added to — a sealed
// tail, a filled replacement, a sorted copy — that holds its rows at their
// least widths (ColumnBlock.narrowed). It shares the block's
// permutations: the rows are the same, at the same positions.
func (s *segment) narrowed() *segment {
	n := *s
	n.ColumnBlock = s.ColumnBlock.narrowed()
	return &n
}

// permBytes is the memory the segment's built permutations take.
func (s *segment) permBytes() int64 {
	n := len(s.byPK.covered()) + len(s.byID.covered())
	for _, lp := range s.perms {
		n += len(lp.covered())
	}
	return int64(n) * 4
}

// at maps a position in sorted order to a position in the segment; a nil
// permutation is the identity.
func at(perm []int32, p int) int {
	if perm == nil {
		return p
	}
	return int(perm[p])
}

// cmpTuple orders row i's values in cols against vals, over the first
// len(vals) columns, the way the key codec orders their encodings.
func (b *ColumnBlock) cmpTuple(cols []int, i int, vals []Value) int {
	for k, v := range vals {
		if c := keyOrder(b.cell(cols[k], i), v); c != 0 {
			return c
		}
	}
	return 0
}

// bound returns the first position in perm order whose cols tuple is at
// least vals — or, with after set, greater than vals. The rows must be
// sorted by cols in that order. One integer against a column without
// NULLs — every lookup the PerfTrack schema makes by an integer — compares
// the column directly.
func (b *ColumnBlock) bound(perm []int32, cols []int, vals []Value, after bool) int {
	return b.boundN(perm, b.rows, cols, vals, after)
}

// boundN is bound over the first n positions of the order.
func (b *ColumnBlock) boundN(perm []int32, n int, cols []int, vals []Value, after bool) int {
	if len(vals) == 1 && vals[0].kind == KindInt {
		if c := &b.cols[cols[0]]; c.kind == KindInt && c.nulls == nil {
			v := vals[0].i
			return sort.Search(n, func(p int) bool {
				x := c.ints.At(at(perm, p))
				return x > v || (x == v && !after)
			})
		}
	}
	return sort.Search(n, func(p int) bool {
		c := b.cmpTuple(cols, at(perm, p), vals)
		return c > 0 || (c == 0 && !after)
	})
}

// cmpRows orders row i of a against row j of b by their values in cols,
// the way the key codec orders their encodings.
func cmpRows(a *ColumnBlock, i int, b *ColumnBlock, j int, cols []int) int {
	for _, c := range cols {
		ca, cb := &a.cols[c], &b.cols[c]
		if ca.kind == KindInt && ca.nulls == nil && cb.nulls == nil {
			if o := cmp.Compare(ca.ints.At(i), cb.ints.At(j)); o != 0 {
				return o
			}
		} else if o := keyOrder(a.cell(c, i), b.cell(c, j)); o != 0 {
			return o
		}
	}
	return 0
}

// sortedRun returns positions [from, to) ordered by (cols, row ID). One
// integer column without NULLs — every index of the PerfTrack schema on
// an integer — is compared directly, in its own width.
func (b *ColumnBlock) sortedRun(cols []int, from, to int) []int32 {
	run := make([]int32, to-from)
	for i := range run {
		run[i] = int32(from + i)
	}
	ids := &b.rowIDs
	if len(cols) == 1 && b.cols[cols[0]].kind == KindInt && b.cols[cols[0]].nulls == nil {
		switch v := &b.cols[cols[0]].ints; v.w {
		case 0: // one value: row-ID order
			slices.SortFunc(run, func(x, y int32) int { return cmp.Compare(ids.At(int(x)), ids.At(int(y))) })
		case 1:
			sortRun(run, v.u8, ids)
		case 2:
			sortRun(run, v.u16, ids)
		case 4:
			sortRun(run, v.u32, ids)
		default:
			sortRun(run, v.i64, ids)
		}
		return run
	}
	slices.SortFunc(run, func(x, y int32) int {
		return cmp.Or(cmpRows(b, int(x), b, int(y), cols), cmp.Compare(ids.At(int(x)), ids.At(int(y))))
	})
	return run
}

// sortRun orders positions by (key, row ID), keys[p] being position p's
// value or its offset from the column's base.
func sortRun[T Offsets](run []int32, keys []T, ids *IntVec) {
	slices.SortFunc(run, func(x, y int32) int {
		return cmp.Or(cmp.Compare(keys[x], keys[y]), cmp.Compare(ids.At(int(x)), ids.At(int(y))))
	})
}

// order returns the segment's positions ordered by (cols, row ID),
// building lp or extending it by the rows appended since it was built:
// the appended run is sorted and merged in, so a tail's permutation costs
// each append its own rows, not the tail's.
func (s *segment) order(lp *lazyPerm, cols []int) []int32 {
	if perm := lp.covered(); len(perm) == s.rows {
		return perm
	}
	lp.mu.Lock()
	defer lp.mu.Unlock()
	perm := lp.covered()
	if len(perm) == s.rows {
		return perm
	}
	run := s.sortedRun(cols, len(perm), s.rows)
	if len(perm) > 0 {
		merged := make([]int32, 0, s.rows)
		i, j := 0, 0
		for i < len(perm) && j < len(run) {
			x, y := int(perm[i]), int(run[j])
			if c := cmpRows(&s.ColumnBlock, x, &s.ColumnBlock, y, cols); c < 0 || (c == 0 && s.rowIDs.At(x) < s.rowIDs.At(y)) {
				merged, i = append(merged, perm[i]), i+1
			} else {
				merged, j = append(merged, run[j]), j+1
			}
		}
		run = append(append(merged, perm[i:]...), run[j:]...)
	}
	lp.perm.Store(&run)
	return run
}

// indexPerm returns the segment's positions in the order of index ix.
func (s *segment) indexPerm(ix *tableIndex) []int32 {
	return s.order(s.perms[ix.spec.Name], ix.cols)
}

// pkPerm returns the segment's positions in primary-key order; nil, the
// identity, when they lie that way.
func (s *segment) pkPerm(pkCols []int) []int32 {
	if s.pkAsc {
		return nil
	}
	return s.order(s.byPK, pkCols)
}

// permSlack is how many appended rows a point lookup scans one by one
// before it extends a tail's permutation over them: a writer that probes
// for a duplicate key before every single-row append would otherwise
// merge the whole permutation each time.
const permSlack = 256

// findPK returns the position of the row whose primary-key columns hold
// vals.
func (s *segment) findPK(pkCols []int, vals []Value) (int, bool) {
	if s.rows == 0 || s.cmpTuple(pkCols, s.top, vals) < 0 {
		return 0, false
	}
	n, perm := s.rows, []int32(nil)
	if !s.pkAsc {
		if perm = s.byPK.covered(); s.rows-len(perm) > permSlack {
			perm = s.order(s.byPK, pkCols)
		}
		n = len(perm)
	}
	if p := s.boundN(perm, n, pkCols, vals, false); p < n && s.cmpTuple(pkCols, at(perm, p), vals) == 0 {
		return at(perm, p), true
	}
	for i := n; i < s.rows; i++ {
		if s.cmpTuple(pkCols, i, vals) == 0 {
			return i, true
		}
	}
	return 0, false
}

// findID returns the position of the row with the given row ID.
func (s *segment) findID(id int64) (int, bool) {
	// Appended rows get consecutive IDs, so the offset from the first is
	// usually the position.
	if g := id - s.minRowID; g >= 0 && g < int64(s.rows) && s.rowIDs.At(int(g)) == id {
		return int(g), true
	}
	var perm []int32
	if !s.idAsc {
		perm = s.order(s.byID, nil)
	}
	p := sort.Search(s.rows, func(p int) bool { return s.rowIDs.At(at(perm, p)) >= id })
	if p == s.rows || s.rowIDs.At(at(perm, p)) != id {
		return 0, false
	}
	return at(perm, p), true
}

// zoneExcludes reports whether the column's zone map proves no row of
// the segment holds v.
func (s *segment) zoneExcludes(col int, v Value) bool {
	z := s.zones[col]
	switch {
	case !z.valid || v.kind != s.cols[col].kind:
		return false
	case v.kind == KindInt:
		return v.i < z.minI || v.i > z.maxI
	case v.kind == KindFloat:
		return v.f < z.minF || v.f > z.maxF
	}
	return false
}

// matches reports whether the segment's columns are those of schema.
func (s *segment) matches(schema *Schema) bool {
	if len(s.cols) != len(schema.Columns) {
		return false
	}
	for ci, col := range schema.Columns {
		if s.cols[ci].kind != col.Type {
			return false
		}
	}
	return true
}

// buildDict derives the dictionary form (codes + words) of a string
// column from its expanded values, in first-appearance order — the same
// order encodeColumn assigns on-disk codes, so a segment round-trips to
// identical codes.
func (c *colVec) buildDict() { c.codes, c.words = dictOf(c.strs) }

func dictOf(strs []string) (codes []uint32, words []string) {
	dict := make(map[string]uint32)
	codes = make([]uint32, len(strs))
	for i, s := range strs {
		code, ok := dict[s]
		if !ok {
			code = uint32(len(words))
			dict[s] = code
			words = append(words, s)
		}
		codes[i] = code
	}
	return codes, words
}

// --- encoding ---

// appendInts writes the values base+vals[i] as one integer stream: the
// first value and the least delta between neighbours as varints, a bit
// width, then each delta less the least one, bit-packed at that width, low
// bits first. Arithmetic wraps, so every int64 sequence round-trips, and a
// constant stride — consecutive row IDs, one document's execution — packs
// to no bytes at all. The deltas do not depend on the base, so a narrow
// vector is written from its offsets.
func appendInts[T Offsets](dst []byte, base int64, vals []T) []byte {
	var first, least int64
	if len(vals) > 0 {
		first = base + int64(vals[0])
	}
	for i := 1; i < len(vals); i++ {
		if d := int64(vals[i]) - int64(vals[i-1]); i == 1 || d < least {
			least = d
		}
	}
	var spread uint64
	for i := 1; i < len(vals); i++ {
		spread |= uint64(int64(vals[i]) - int64(vals[i-1]) - least)
	}
	w := uint(bits.Len64(spread))
	dst = append(putVarint(putVarint(dst, first), least), byte(w))
	var acc uint64
	var n uint // bits of acc not yet written
	for i := 1; i < len(vals) && w > 0; i++ {
		v := uint64(int64(vals[i]) - int64(vals[i-1]) - least)
		acc |= v << n
		if n += w; n >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			n -= 64
			acc = v >> (w - n)
		}
	}
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// appendIntVec writes a vector as one integer stream (appendInts).
func appendIntVec(dst []byte, v *IntVec) []byte {
	switch v.w {
	case 1:
		return appendInts(dst, v.base, v.u8)
	case 2:
		return appendInts(dst, v.base, v.u16)
	case 4:
		return appendInts(dst, v.base, v.u32)
	case 8:
		return appendInts(dst, 0, v.i64)
	}
	first := v.base // width 0: the base n times, a stride of 0
	if v.n == 0 {
		first = 0
	}
	return append(putVarint(putVarint(dst, first), 0), 0)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = func() (p [23]float64) {
	p[0] = 1
	for e := 1; e < len(p); e++ {
		p[e] = p[e-1] * 10
	}
	return p
}()

// rawFloats is the exponent byte of a float column written as raw values.
const rawFloats = 0xff

// mantissa returns the d, |d| ≤ 2^53, for which float64(d)/10^e is
// bit-equal to v, if there is one. The division is correctly rounded, so
// any v parsed from decimal text with at most e fraction digits has one.
func mantissa(v float64, e int) (int64, bool) {
	d := math.Round(v * pow10[e])
	if !(math.Abs(d) <= 1<<53) { // NaN and ±Inf too
		return 0, false
	}
	return int64(d), math.Float64bits(float64(int64(d))/pow10[e]) == math.Float64bits(v)
}

// appendFloats writes a float column as the mantissas of its values at
// the least exponent every value that is not NULL has one at — a NULL's
// is 0 — or, when there is none, as raw 8-byte values.
func appendFloats(dst []byte, vals []float64, nulls []bool) []byte {
	e := 0
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		for _, ok := mantissa(v, e); !ok; _, ok = mantissa(v, e) {
			if e++; e == len(pow10) {
				return appendRawFloats(dst, vals)
			}
		}
	}
	// A value that had a mantissa at a lower exponent is checked again.
	ds := make([]int64, len(vals))
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		d, ok := mantissa(v, e)
		if !ok {
			return appendRawFloats(dst, vals)
		}
		ds[i] = d
	}
	return appendInts(append(dst, byte(e)), 0, ds)
}

func appendRawFloats(dst []byte, vals []float64) []byte {
	dst = append(dst, rawFloats)
	for _, f := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func encodeBitmap(dst []byte, set []bool) []byte {
	cur := byte(0)
	for i, b := range set {
		if b {
			cur |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(set)&7 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

func encodeColumn(dst []byte, c *colVec) []byte {
	switch c.kind {
	case KindInt:
		dst = appendIntVec(dst, &c.ints)
	case KindFloat:
		dst = appendFloats(dst, c.floats, c.nulls)
	case KindString:
		codes, words := c.codes, c.words
		if codes == nil { // a tail: it is being read, so it is not given one here
			codes, words = dictOf(c.strs)
		}
		dst = putUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = putString(dst, w)
		}
		dst = appendInts(dst, 0, codes)
	case KindBool:
		dst = encodeBitmap(dst, c.bools)
	}
	return dst
}

// encodeSegment serializes the segment to its on-disk byte image.
func encodeSegment(s *segment) []byte {
	buf := append([]byte(nil), segMagic...)
	type extent struct{ off, n uint64 }
	bodyStart := len(buf)

	rowIDExt := extent{off: uint64(len(buf) - bodyStart)}
	buf = appendIntVec(buf, &s.rowIDs)
	rowIDExt.n = uint64(len(buf)-bodyStart) - rowIDExt.off

	colExt := make([]extent, len(s.cols))
	for ci := range s.cols {
		c := &s.cols[ci]
		colExt[ci].off = uint64(len(buf) - bodyStart)
		if c.nulls != nil {
			buf = append(buf, 1)
			buf = encodeBitmap(buf, c.nulls)
		} else {
			buf = append(buf, 0)
		}
		buf = encodeColumn(buf, c)
		colExt[ci].n = uint64(len(buf)-bodyStart) - colExt[ci].off
	}
	bodyCRC := crc32.ChecksumIEEE(buf[bodyStart:])

	footer := putString(nil, s.table)
	footer = putUvarint(footer, uint64(s.rows))
	footer = putVarint(footer, s.minRowID)
	footer = putVarint(footer, s.maxRowID)
	footer = putVarint(footer, s.minPK)
	footer = putVarint(footer, s.maxPK)
	footer = putUvarint(footer, rowIDExt.off)
	footer = putUvarint(footer, rowIDExt.n)
	footer = putUvarint(footer, uint64(len(s.cols)))
	for ci := range s.cols {
		c := &s.cols[ci]
		footer = append(footer, byte(c.kind))
		footer = putUvarint(footer, colExt[ci].off)
		footer = putUvarint(footer, colExt[ci].n)
		z := s.zones[ci]
		if z.valid {
			footer = append(footer, 1)
			footer = putVarint(footer, z.minI)
			footer = putVarint(footer, z.maxI)
			var fb [16]byte
			binary.LittleEndian.PutUint64(fb[0:8], math.Float64bits(z.minF))
			binary.LittleEndian.PutUint64(fb[8:16], math.Float64bits(z.maxF))
			footer = append(footer, fb[:]...)
		} else {
			footer = append(footer, 0)
		}
	}
	footer = putUvarint(footer, uint64(bodyCRC))

	buf = append(buf, footer...)
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:4], uint32(len(footer)))
	binary.LittleEndian.PutUint32(tail[4:8], crc32.ChecksumIEEE(footer))
	buf = append(buf, tail[:]...)
	buf = append(buf, segMagic...)
	return buf
}

// --- decoding ---

// segFormat is how one segment format writes integers and floats. Each
// reader decodes n values from the front of data and returns what
// follows them; it checks that the bytes they take are there before it
// allocates. A zero-width integer stream takes none for any n, so there
// only the footer's bound on rows limits what is allocated. An integer
// column or the row IDs are read into a vector whose values the footer
// says lie in [lo, hi].
type segFormat struct {
	ints   func(data []byte, n int, lo, hi int64) (IntVec, []byte, error)
	codes  func(data []byte, n int) ([]int64, []byte, error)
	floats func(data []byte, n int) ([]float64, []byte, error)
}

// segFormats maps a segment's magic to its format.
var segFormats = map[string]segFormat{
	segMagic: {readIntVec, readInts, readFloats},
	// Format 1: zig-zag varint deltas off a running base, uvarint
	// dictionary codes, raw floats.
	segMagicV1: {
		ints: func(data []byte, n int, _, _ int64) (IntVec, []byte, error) {
			vals, rest, err := readVarints(data, n, true)
			v := IntVec{n: len(vals), w: 8, i64: vals}
			return v.narrowed(), rest, err
		},
		codes:  func(data []byte, n int) ([]int64, []byte, error) { return readVarints(data, n, false) },
		floats: readRawFloats,
	},
}

// readInts reads an integer stream of n values (appendInts).
func readInts(data []byte, n int) ([]int64, []byte, error) {
	return unpackInts[int64](data, n, 0, math.MaxUint64, 0)
}

// readIntVec reads an integer stream of n values that lie in [lo, hi]
// straight into a vector at the width that range needs: the footer's
// ranges size a decoded segment before any value is read. A value outside
// the range makes the segment corrupt.
func readIntVec(data []byte, n int, lo, hi int64) (IntVec, []byte, error) {
	v := IntVec{base: lo, n: n, w: widthFor(lo, hi)}
	span := uint64(hi) - uint64(lo)
	var err error
	switch v.w {
	case 0:
		_, data, err = unpackInts[uint8](data, n, lo, span, lo)
	case 1:
		v.u8, data, err = unpackInts[uint8](data, n, lo, span, lo)
	case 2:
		v.u16, data, err = unpackInts[uint16](data, n, lo, span, lo)
	case 4:
		v.u32, data, err = unpackInts[uint32](data, n, lo, span, lo)
	default:
		v.base = 0
		v.i64, data, err = unpackInts[int64](data, n, lo, span, 0)
	}
	return v, data, err
}

// unpackInts reads an integer stream of n values (appendInts), each of
// which must lie within span above lo, and returns each value less base
// as T — nothing, when span is 0 — and what follows the stream.
func unpackInts[T Offsets](data []byte, n int, lo int64, span uint64, base int64) ([]T, []byte, error) {
	p := &payloadReader{buf: data}
	first, least, w := p.varint(), p.varint(), uint(p.byteVal())
	size := (uint64(max(n-1, 0))*uint64(w) + 7) / 8
	if p.err != nil || w > 64 || size > uint64(len(p.buf)) {
		return nil, nil, ErrCorruptSegment
	}
	packed, rest := p.buf[:size], p.buf[size:]
	var out []T
	if span > 0 {
		out = make([]T, n)
	}
	mask := uint64(1)<<w - 1
	var acc uint64
	var have uint // bits of acc not yet read
	x := first
	for i := 0; i < n; i++ {
		if i > 0 {
			v := acc
			if have >= w {
				acc, have = acc>>w, have-w
			} else {
				var next uint64
				if len(packed) >= 8 {
					next, packed = binary.LittleEndian.Uint64(packed), packed[8:]
				} else {
					for k, b := range packed {
						next |= uint64(b) << (8 * k)
					}
					packed = nil
				}
				v |= next << have
				acc, have = next>>(w-have), have+64-w
			}
			x += least + int64(v&mask)
		}
		if uint64(x)-uint64(lo) > span {
			return nil, nil, ErrCorruptSegment
		}
		if out != nil {
			out[i] = T(uint64(x) - uint64(base))
		}
	}
	return out, rest, nil
}

// readVarints reads format 1's n varints: zig-zag deltas off a running
// base or, without deltas, uvarint dictionary codes.
func readVarints(data []byte, n int, deltas bool) ([]int64, []byte, error) {
	if n > len(data) { // each takes a byte at least
		return nil, nil, ErrCorruptSegment
	}
	p, out, prev := &payloadReader{buf: data}, make([]int64, n), int64(0)
	for i := range out {
		if deltas {
			prev += p.varint()
			out[i] = prev
		} else {
			out[i] = int64(p.uvarint())
		}
	}
	if p.err != nil {
		return nil, nil, ErrCorruptSegment
	}
	return out, p.buf, nil
}

// readFloats reads a float column of n values (appendFloats).
func readFloats(data []byte, n int) ([]float64, []byte, error) {
	if len(data) == 0 {
		return nil, nil, ErrCorruptSegment
	}
	e, data := int(data[0]), data[1:]
	if e == rawFloats {
		return readRawFloats(data, n)
	}
	if e >= len(pow10) {
		return nil, nil, ErrCorruptSegment
	}
	ds, rest, err := readInts(data, n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, n)
	for i, d := range ds {
		out[i] = float64(d) / pow10[e]
	}
	return out, rest, nil
}

func readRawFloats(data []byte, n int) ([]float64, []byte, error) {
	if uint64(n)*8 > uint64(len(data)) {
		return nil, nil, ErrCorruptSegment
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, data[8*n:], nil
}

func decodeBitmap(data []byte, n int) ([]bool, []byte, error) {
	nb := (n + 7) / 8
	if len(data) < nb {
		return nil, nil, ErrCorruptSegment
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = data[i>>3]&(1<<(uint(i)&7)) != 0
	}
	return out, data[nb:], nil
}

// decodeColumn reads a column block of n rows; z is the column's zone map.
func decodeColumn(kind Kind, data []byte, n int, f segFormat, z zoneMap) (colVec, error) {
	cv := colVec{kind: kind}
	if len(data) == 0 || data[0] > 1 {
		return cv, ErrCorruptSegment
	}
	hasNulls := data[0] == 1
	data = data[1:]
	var err error
	if hasNulls {
		if cv.nulls, data, err = decodeBitmap(data, n); err != nil {
			return cv, err
		}
	}
	switch kind {
	case KindInt:
		lo, hi := z.minI, z.maxI // over the values that are not NULL
		if !z.valid {
			lo, hi = 0, 0
		}
		if cv.nulls != nil { // a NULL keeps a zero
			lo, hi = min(lo, 0), max(hi, 0)
		}
		cv.ints, data, err = f.ints(data, n, lo, hi)
	case KindFloat:
		cv.floats, data, err = f.floats(data, n)
	case KindString:
		p := &payloadReader{buf: data}
		cv.words = make([]string, p.count())
		for i := range cv.words {
			cv.words[i] = p.str()
		}
		if p.err != nil || len(cv.words) > n {
			return cv, ErrCorruptSegment
		}
		var codes []int64
		if codes, data, err = f.codes(p.buf, n); err != nil {
			return cv, err
		}
		cv.strs, cv.codes = make([]string, n), make([]uint32, n)
		for i, code := range codes {
			if uint64(code) >= uint64(len(cv.words)) {
				return cv, ErrCorruptSegment
			}
			cv.strs[i], cv.codes[i] = cv.words[code], uint32(code)
		}
	case KindBool:
		cv.bools, data, err = decodeBitmap(data, n)
	default:
		return cv, ErrCorruptSegment
	}
	if err != nil || len(data) != 0 {
		return cv, ErrCorruptSegment
	}
	return cv, nil
}

// decodeSegment parses and validates a full segment image.
func decodeSegment(buf []byte) (*segment, error) {
	const magicLen = 8
	if len(buf) < 2*magicLen+8 {
		return nil, ErrCorruptSegment
	}
	f, ok := segFormats[string(buf[:magicLen])]
	if !ok || string(buf[len(buf)-magicLen:]) != string(buf[:magicLen]) {
		return nil, ErrCorruptSegment
	}
	tail := buf[len(buf)-magicLen-8 : len(buf)-magicLen]
	footerLen := int(binary.LittleEndian.Uint32(tail[0:4]))
	footerCRC := binary.LittleEndian.Uint32(tail[4:8])
	footerEnd := len(buf) - magicLen - 8
	if footerLen <= 0 || footerEnd-footerLen < magicLen {
		return nil, ErrCorruptSegment
	}
	footer := buf[footerEnd-footerLen : footerEnd]
	if crc32.ChecksumIEEE(footer) != footerCRC {
		return nil, ErrCorruptSegment
	}
	body := buf[magicLen : footerEnd-footerLen]

	p := &payloadReader{buf: footer}
	s := &segment{sizeOn: int64(len(buf)), table: p.str()}
	rows := p.uvarint()
	s.minRowID, s.maxRowID, s.minPK, s.maxPK = p.varint(), p.varint(), p.varint(), p.varint()
	rowIDOff, rowIDLen, ncols := p.uvarint(), p.uvarint(), p.count()
	if p.err != nil || rows == 0 || rows > 1<<30 || ncols == 0 {
		return nil, ErrCorruptSegment
	}
	s.rows = int(rows)
	type colMeta struct {
		kind   Kind
		off, n uint64
	}
	metas := make([]colMeta, ncols)
	s.cols = make([]colVec, ncols)
	s.zones = make([]zoneMap, ncols)
	for ci := range metas {
		metas[ci] = colMeta{Kind(p.byteVal()), p.uvarint(), p.uvarint()}
		switch p.byteVal() {
		case 0:
		case 1:
			minI, maxI, f := p.varint(), p.varint(), p.bytes(16)
			if f != nil {
				s.zones[ci] = zoneMap{valid: true, minI: minI, maxI: maxI,
					minF: math.Float64frombits(binary.LittleEndian.Uint64(f[0:8])),
					maxF: math.Float64frombits(binary.LittleEndian.Uint64(f[8:16]))}
			}
		default:
			p.fail()
		}
	}
	bodyCRC := p.uvarint()
	if p.err != nil || !p.empty() || crc32.ChecksumIEEE(body) != uint32(bodyCRC) {
		return nil, ErrCorruptSegment
	}

	slice := func(off, n uint64) ([]byte, error) {
		if off > uint64(len(body)) || n > uint64(len(body))-off {
			return nil, ErrCorruptSegment
		}
		return body[off : off+n], nil
	}
	rb, err := slice(rowIDOff, rowIDLen)
	if err != nil {
		return nil, err
	}
	if s.rowIDs, rb, err = f.ints(rb, s.rows, s.minRowID, s.maxRowID); err != nil || len(rb) != 0 {
		return nil, ErrCorruptSegment
	}
	for ci, m := range metas {
		cb, err := slice(m.off, m.n)
		if err != nil {
			return nil, err
		}
		if s.cols[ci], err = decodeColumn(m.kind, cb, s.rows, f, s.zones[ci]); err != nil {
			return nil, err
		}
	}
	s.pkAsc, s.idAsc, s.top, s.low = true, s.rowIDs.sorted(), s.rows-1, 0
	return s, nil
}

// writeSegmentFile encodes the segment and writes it to path
// (writeFile), returning the file's size. The segment itself is only
// read: readers may be using it. The manifest gates visibility, so a
// crash mid-write leaves only an orphan file that open-time cleanup
// removes, and the rename needs no directory fsync of its own: the
// manifest that first names the segment lives in the same directory and
// replaceFile fsyncs it.
func writeSegmentFile(fsys FS, path string, s *segment) (int64, error) {
	buf := encodeSegment(s)
	if err := writeFile(fsys, path, buf); err != nil {
		return 0, fmt.Errorf("reldb: write segment: %w", err)
	}
	return int64(len(buf)), nil
}

// writeFile makes data path's contents, durably but for the directory
// entry: a temp file, written and fsynced, renamed over path. On error
// the temp file is removed and path keeps its old bytes.
func writeFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = synced(f.Sync())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// readSegmentFile loads and validates one segment file.
func readSegmentFile(fsys FS, path string) (*segment, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reldb: read segment %s: %w", path, err)
	}
	s, err := decodeSegment(buf)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	s.file = path
	return s, nil
}
