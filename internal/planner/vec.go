package planner

// The one executor. Every planned performance_result scan runs here:
// the access strategy only decides which ColumnBlocks are produced (a
// PK range over the store's block source, or a gathered ascending ID
// list), and each block then streams through the same loop — selection
// kernels filter fixed-size windows (vecBatch rows) into a reusable
// index buffer, and a sink folds the survivors, either into per-group
// accumulator arrays (pushed aggregates) or into rows streamed to the SQL
// executor (row queries). An aggregate's immutable segment blocks fan out
// across a bounded worker pool; tail and transposed blocks, and every
// block of a row query, fold sequentially.
// Dictionary-ID → name resolution is deferred to final output.
//
// Kernel contract (DESIGN.md §12): every kernel must be byte-identical
// to the naive row-at-a-time path. COUNT/MIN/MAX and integer sums merge
// exactly under any partitioning. Float sums are accumulated per worker
// over a contiguous run of segments and merged in segment order, so a
// result is deterministic for a given worker count; because float
// addition is non-associative, the grouping of partial sums (not their
// order) can differ from the naive left-to-right fold in final ULPs for
// data whose sums are inexact. The differential and fuzz corpora use
// dyadic values, whose sums are exact, so planned==naive stays
// byte-for-byte. Compaction safety comes for free: a block scan pins an
// immutable segment list, and the tail rows above its watermark are
// folded in sequentially afterwards.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/par"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// vecBatch is the window size the kernels process per step: selection
// buffers and group-ordinal buffers are reused at this granularity, so
// scans of arbitrarily large segments run in bounded scratch memory.
const vecBatch = 4096

// maxDenseGroups bounds the packed group-key space (the product of the
// per-key-column dictionary sizes) and the total accumulator entries
// across workers. A larger key space gets its ordinals from a key →
// ordinal map on one worker instead. Tests lower it to reach that path.
var maxDenseGroups = 1 << 20

// --- pushed-filter resolution ---

// vecDim is one pushed dimension equality resolved to its physical
// column index and dictionary ID.
type vecDim struct {
	col int
	id  int64
}

// resultFilter is the pushed predicate set of one performance_result
// scan, resolved against the store's dictionaries. Family specs are not
// checked per row: they select the access strategy, whose gathered ID
// list (famIDs) already is the family's result set.
type resultFilter struct {
	dims       []vecDim
	nums       []numPred
	fams       []core.ResourceFilter // the parsed family specs
	famIDs     []int64               // their selection, ascending; set when fams is
	impossible bool                  // a pushed dimension name is unknown: nothing matches
}

// buildResultFilter resolves the pushed conjuncts of a
// performance_result scan. Family specs resolve here — even when another
// predicate already rules every row out, because naive execution reports
// a bad spec either way — and parse exactly once: the strategy label, the
// estimate and the plan text read the parsed filters from the result.
func (p *Planner) buildResultFilter(ctx context.Context, pushed []conjunct) (resultFilter, error) {
	var f resultFilter
	var sel query.Selection
	for _, c := range pushed {
		switch c.kind {
		case kindDim:
			d := resultDims[c.dimCol]
			id, ok := p.store.LookupDict(d.dict, c.dimVal)
			if !ok {
				f.impossible = true
				continue
			}
			f.dims = append(f.dims, vecDim{d.physCol, id})
		case kindNum:
			f.nums = append(f.nums, c.num)
		case kindFamily:
			sel.Families = append(sel.Families, c.famSpec)
		}
	}
	if len(sel.Families) > 0 {
		res, err := query.Resolve(ctx, p.store, &sel)
		if err != nil {
			return f, fmt.Errorf("planner: %w", err)
		}
		f.fams, f.famIDs = res.Filters, res.IDs()
	}
	return f, nil
}

// --- column vectors and selection kernels ---

// blockVecs holds one performance_result block's column vectors. The
// integer ones are at whatever width the block holds them (reldb.IntVec).
type blockVecs struct {
	ids            *reldb.IntVec
	es, ms, ts, us *reldb.IntVec
	vs             []float64
}

// resultBlockVecs extracts and validates the column vectors of a block.
// Every scanned column is NOT NULL in the schema and reldb rejects NULLs
// at insert, so a NULL bitmap or a column of the wrong kind means the
// block is corrupt: the scan fails rather than guess.
func resultBlockVecs(b *reldb.ColumnBlock) (blockVecs, error) {
	v := blockVecs{
		ids: b.IDs(),
		es:  b.Ints(1), ms: b.Ints(2), ts: b.Ints(3), us: b.Ints(4),
		vs: b.Float64s(5),
	}
	n := b.Len()
	if v.es == nil || v.ms == nil || v.ts == nil || v.us == nil || v.ids.Len() != n || v.es.Len() != n ||
		v.ms.Len() != n || v.ts.Len() != n || v.us.Len() != n || len(v.vs) != n {
		return v, fmt.Errorf("planner: performance_result block does not match the schema (%d rows)", n)
	}
	for col := 1; col <= 5; col++ {
		if b.Nulls(col) != nil {
			return v, fmt.Errorf("planner: performance_result block has NULLs in NOT NULL column %d", col)
		}
	}
	return v, nil
}

// dim returns the vector of one physical dimension column.
func (v *blockVecs) dim(phys int) *reldb.IntVec {
	switch phys {
	case 1:
		return v.es
	case 2:
		return v.ms
	case 3:
		return v.ts
	case 4:
		return v.us
	}
	return nil
}

// selFn filters one window of a block. fill seeds the selection from
// [start, end); refine compacts an existing selection in place. Both
// keep absolute block row indices.
type selFn struct {
	fill   func(sel []int32, start, end int) []int32
	refine func(sel []int32) []int32
}

// eqKernel selects the rows of an integer column whose offset from the
// column's base is off: a narrow column is compared in its own width, and
// a consecutive one holds it at position off alone.
func eqKernel(v *reldb.IntVec, off uint64) selFn {
	if v.Consecutive() {
		return posKernel(int32(off))
	}
	switch v.Width() {
	case 1:
		return eqKernelOf(v.U8(), uint8(off))
	case 2:
		return eqKernelOf(v.U16(), uint16(off))
	case 4:
		return eqKernelOf(v.U32(), uint32(off))
	}
	return eqKernelOf(v.I64(), int64(off))
}

// eqKernelOf selects rows whose element equals want.
func eqKernelOf[T reldb.Offsets](vals []T, want T) selFn {
	return selFn{
		fill: func(sel []int32, start, end int) []int32 {
			for i := start; i < end; i++ {
				if vals[i] == want {
					sel = append(sel, int32(i))
				}
			}
			return sel
		},
		refine: func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if vals[i] == want {
					out = append(out, i)
				}
			}
			return out
		},
	}
}

// posKernel selects the row at position p.
func posKernel(p int32) selFn {
	return selFn{
		fill: func(sel []int32, start, end int) []int32 {
			if int(p) >= start && int(p) < end {
				sel = append(sel, p)
			}
			return sel
		},
		refine: func(sel []int32) []int32 {
			if slices.Contains(sel, p) {
				return append(sel[:0], p)
			}
			return sel[:0]
		},
	}
}

// cmpKernel selects rows satisfying one pushed numeric predicate; x
// projects a row index to the compared value (the value column, or the
// row ID widened to float64 exactly as the scalar path does).
func cmpKernel(np numPred, x func(i int32) float64) selFn {
	return selFn{
		fill: func(sel []int32, start, end int) []int32 {
			for i := start; i < end; i++ {
				if np.ok(x(int32(i))) {
					sel = append(sel, int32(i))
				}
			}
			return sel
		},
		refine: func(sel []int32) []int32 {
			out := sel[:0]
			for _, i := range sel {
				if np.ok(x(i)) {
					out = append(out, i)
				}
			}
			return out
		},
	}
}

// kernels compiles the filter into per-column selection kernels over
// this block's vectors. An equality no row of the block can meet — the
// value lies outside what the column's width holds above its base — makes
// none true, and one every row meets — a constant column holding the
// value — needs no kernel.
func (v *blockVecs) kernels(f *resultFilter) (ks []selFn, none bool) {
	for _, d := range f.dims {
		col := v.dim(d.col)
		switch off, ok := col.Offset(d.id); {
		case !ok:
			return nil, true
		case col.Width() > 0 || col.Consecutive():
			ks = append(ks, eqKernel(col, off))
		}
	}
	for _, np := range f.nums {
		if np.col == "id" {
			ids := v.ids
			ks = append(ks, cmpKernel(np, func(i int32) float64 { return float64(ids.At(int(i))) }))
		} else {
			vs := v.vs
			ks = append(ks, cmpKernel(np, func(i int32) float64 { return vs[i] }))
		}
	}
	return ks, false
}

// --- block partition ---

// partitionBlocks splits blocks (given by row count) into at most w
// contiguous [start, end) ranges of roughly equal total rows.
// Contiguity keeps the worker-merge order equal to segment order.
func partitionBlocks(lens []int, w int) [][2]int {
	if len(lens) == 0 || w <= 1 {
		return [][2]int{{0, len(lens)}}
	}
	var total int64
	for _, n := range lens {
		total += int64(n)
	}
	target := (total + int64(w) - 1) / int64(w)
	var parts [][2]int
	start, acc := 0, int64(0)
	for i, n := range lens {
		acc += int64(n)
		if acc >= target && len(parts) < w-1 {
			parts = append(parts, [2]int{start, i + 1})
			start, acc = i+1, 0
		}
	}
	return append(parts, [2]int{start, len(lens)})
}

// blockLens extracts per-block row counts for the partitioner.
func blockLens(blocks []*reldb.ColumnBlock) []int {
	lens := make([]int, len(blocks))
	for i, b := range blocks {
		lens[i] = b.Len()
	}
	return lens
}

// partRows sums per-block row counts into per-worker-part totals — the
// utilization numbers analyze output reports.
func partRows(lens []int, parts [][2]int) []int64 {
	out := make([]int64, len(parts))
	for pi, pr := range parts {
		for bi := pr[0]; bi < pr[1]; bi++ {
			out[pi] += int64(lens[bi])
		}
	}
	return out
}

// --- aggregate sink ---

// vecAggSpec classifies one aggregate call for the kernels.
type vecAggSpec struct {
	fe    *sqldb.FuncExpr
	fn    string // COUNT, SUM, AVG, MIN, MAX
	star  bool
	idArg bool // argument is id (int64); otherwise value (float64)
}

// vecAccum is one worker's accumulator set, indexed by the group
// ordinals its aggSink assigns. rowCount doubles as the COUNT state and the
// group-membership sentinel (0 = unseen); firstOrd records the global
// scan ordinal of the group's first row so output order matches the
// naive first-appearance order.
type vecAccum struct {
	rowCount []int64
	firstOrd []int64
	aggs     []vecAggAcc
}

// vecAggAcc holds only the arrays one aggregate actually needs.
type vecAggAcc struct {
	sumF       []float64
	sumI       []int64
	minF, maxF []float64
	minI, maxI []int64
}

func newVecAccum(n int, specs []vecAggSpec) *vecAccum {
	a := &vecAccum{
		rowCount: make([]int64, n),
		firstOrd: make([]int64, n),
		aggs:     make([]vecAggAcc, len(specs)),
	}
	for i, sp := range specs {
		if sp.star {
			continue // rowCount is the whole state
		}
		acc := &a.aggs[i]
		switch sp.fn {
		case "SUM":
			if sp.idArg {
				acc.sumI = make([]int64, n)
			} else {
				acc.sumF = make([]float64, n)
			}
		case "AVG":
			acc.sumF = make([]float64, n) // ints fold in as float64, like aggState
		case "MIN", "MAX":
			if sp.idArg {
				acc.minI = make([]int64, n)
				acc.maxI = make([]int64, n)
				for g := range acc.minI {
					acc.minI[g] = math.MaxInt64
					acc.maxI[g] = math.MinInt64
				}
			} else {
				acc.minF = make([]float64, n)
				acc.maxF = make([]float64, n)
				for g := range acc.minF {
					acc.minF[g] = math.Inf(1)
					acc.maxF[g] = math.Inf(-1)
				}
			}
		}
	}
	return a
}

// grow appends one unseen group's slot and returns its ordinal.
func (acc *vecAccum) grow() int32 {
	g := int32(len(acc.rowCount))
	acc.rowCount = append(acc.rowCount, 0)
	acc.firstOrd = append(acc.firstOrd, 0)
	for ai := range acc.aggs {
		a := &acc.aggs[ai]
		if a.sumF != nil {
			a.sumF = append(a.sumF, 0)
		}
		if a.sumI != nil {
			a.sumI = append(a.sumI, 0)
		}
		if a.minF != nil {
			a.minF = append(a.minF, math.Inf(1))
			a.maxF = append(a.maxF, math.Inf(-1))
		}
		if a.minI != nil {
			a.minI = append(a.minI, math.MaxInt64)
			a.maxI = append(a.maxI, math.MinInt64)
		}
	}
	return g
}

// combine folds group sg of src (a later contiguous run of blocks) into
// group g of dst. Sums add in merge order; extrema keep the earlier-seen
// value on ties, matching the naive first-seen rule.
func (dst *vecAccum) combine(g int32, src *vecAccum, sg int) {
	first := dst.rowCount[g] == 0
	if first {
		dst.firstOrd[g] = src.firstOrd[sg]
	}
	dst.rowCount[g] += src.rowCount[sg]
	for ai := range dst.aggs {
		da, sa := &dst.aggs[ai], &src.aggs[ai]
		if da.sumF != nil {
			da.sumF[g] += sa.sumF[sg]
		}
		if da.sumI != nil {
			da.sumI[g] += sa.sumI[sg]
		}
		if da.minF != nil {
			if first || sa.minF[sg] < da.minF[g] {
				da.minF[g] = sa.minF[sg]
			}
			if first || sa.maxF[sg] > da.maxF[g] {
				da.maxF[g] = sa.maxF[sg]
			}
		}
		if da.minI != nil {
			if first || sa.minI[sg] < da.minI[g] {
				da.minI[g] = sa.minI[sg]
			}
			if first || sa.maxI[sg] > da.maxI[g] {
				da.maxI[g] = sa.maxI[sg]
			}
		}
	}
}

// finish reconstructs one aggregate's finished accumulator for group g
// from the merged parts, reproducing aggState's observable results
// exactly (see NewFinishedAggregator).
func (sp *vecAggSpec) finish(acc *vecAccum, ai int, g int32) *sqldb.Aggregator {
	a := &acc.aggs[ai]
	count := acc.rowCount[g]
	var sum float64
	var sumInt int64
	if a.sumF != nil {
		sum = a.sumF[g]
	}
	if a.sumI != nil {
		sumInt = a.sumI[g]
	}
	allInt := sp.star || sp.idArg || count == 0
	min, max := reldb.Null(), reldb.Null()
	if count > 0 && !sp.star {
		if a.minF != nil {
			min, max = reldb.Float(a.minF[g]), reldb.Float(a.maxF[g])
		}
		if a.minI != nil {
			min, max = reldb.Int(a.minI[g]), reldb.Int(a.maxI[g])
		}
	}
	return sqldb.NewFinishedAggregator(sp.fe, count, sum, sumInt, allInt, min, max)
}

// blockSink consumes the rows of a scan that survive the pushed
// predicates. Each worker of a scan owns one sink.
type blockSink interface {
	// open prepares the sink for one block's columns.
	open(b *reldb.ColumnBlock, bv *blockVecs)
	// fold consumes rows [start, end) of the open block — only the rows
	// in sel when it is non-nil — and stops the scan with an error. base
	// is the block's global scan ordinal.
	fold(base int64, start, end int, sel []int32) error
	// merge appends a sink that scanned a later contiguous run of blocks.
	merge(later blockSink)
}

// aggSink folds rows into per-group accumulator arrays indexed by group
// ordinal. Ordinals below dense are the group key itself, packed over
// the dictionary-ID capacities of the key columns; a key outside that
// space (a dictionary entry newer than the capacities, or any key when
// the packed space would exceed maxDenseGroups and dense is 0) gets the
// next ordinal above dense from the over map.
type aggSink struct {
	specs      []vecAggSpec
	keyCols    []int   // physical dimension column per GROUP BY key
	caps, mult []int64 // per key: dictionary-ID capacity, packing multiplier
	dense      int     // size of the packed ordinal space
	acc        *vecAccum
	over       map[[4]int64]int32 // key outside the packed space → ordinal
	overKeys   [][4]int64         // ordinal-dense → key
	gbuf       []int32

	// The open block.
	bv     *blockVecs
	keys   []*reldb.IntVec
	packed bool // every key of the block lies inside the packed space
}

func (s *aggSink) open(b *reldb.ColumnBlock, bv *blockVecs) {
	s.bv = bv
	s.keys = s.keys[:0]
	s.packed = s.dense > 0
	for ki, phys := range s.keyCols {
		s.keys = append(s.keys, bv.dim(phys))
		mn, mx, ok := b.ZoneInt64(phys)
		s.packed = s.packed && ok && mn >= 0 && mx < s.caps[ki]
	}
}

// ordinal maps row i of an unpacked block to its accumulator slot.
func (s *aggSink) ordinal(i int32) int32 {
	var key [4]int64
	g, packed := int64(0), s.dense > 0
	for ki, col := range s.keys {
		k := col.At(int(i))
		key[ki] = k
		packed = packed && k >= 0 && k < s.caps[ki]
		g += k * s.mult[ki]
	}
	if packed {
		return int32(g)
	}
	return s.overOrdinal(key)
}

// overOrdinal returns the ordinal of a key outside the packed space,
// appending an accumulator slot on first sight.
func (s *aggSink) overOrdinal(key [4]int64) int32 {
	g, ok := s.over[key]
	if !ok {
		if s.over == nil {
			s.over = make(map[[4]int64]int32)
		}
		g = s.acc.grow()
		s.over[key] = g
		s.overKeys = append(s.overKeys, key)
	}
	return g
}

// key returns the per-column dictionary IDs of group ordinal g.
func (s *aggSink) key(g int32) (key [4]int64) {
	if int(g) >= s.dense {
		return s.overKeys[int(g)-s.dense]
	}
	rem := int64(g)
	for ki := range s.keyCols {
		key[ki] = rem % s.caps[ki]
		rem /= s.caps[ki]
	}
	return key
}

func (s *aggSink) merge(later blockSink) {
	src := later.(*aggSink)
	for sg, rc := range src.acc.rowCount {
		if rc == 0 {
			continue
		}
		g := int32(sg)
		if sg >= src.dense {
			g = s.overOrdinal(src.overKeys[sg-src.dense])
		}
		s.acc.combine(g, src.acc, sg)
	}
}

// addKeys adds key column kv's packed contribution, its value times mu, to
// the group ordinal of each row of the window — in the column's own width:
// a constant column adds one term to every row, a consecutive one its
// position times mu.
func addKeys(g []int32, kv *reldb.IntVec, mu int32, start, end int, sel []int32) {
	base := int32(kv.Base()) * mu
	switch kv.Width() {
	case 0:
		for j := range g {
			if !kv.Consecutive() {
				g[j] += base
				continue
			}
			i := start + j // row i's offset is i
			if sel != nil {
				i = int(sel[j])
			}
			g[j] += base + int32(i)*mu
		}
	case 1:
		addKeysOf(g, kv.U8(), base, mu, start, end, sel)
	case 2:
		addKeysOf(g, kv.U16(), base, mu, start, end, sel)
	case 4:
		addKeysOf(g, kv.U32(), base, mu, start, end, sel)
	default:
		addKeysOf(g, kv.I64(), base, mu, start, end, sel)
	}
}

func addKeysOf[T reldb.Offsets](g []int32, offs []T, base, mu int32, start, end int, sel []int32) {
	if sel != nil {
		for j, i := range sel {
			g[j] += base + int32(offs[i])*mu
		}
		return
	}
	for j, i := 0, start; i < end; j, i = j+1, i+1 {
		g[j] += base + int32(offs[i])*mu
	}
}

// fold runs the aggregation kernels over one selected window.
func (s *aggSink) fold(base int64, start, end int, sel []int32) error {
	acc, bv, keys, specs := s.acc, s.bv, s.keys, s.specs
	m := end - start
	if sel != nil {
		m = len(sel)
	}

	// Group ordinal per selected row.
	g := s.gbuf[:0]
	switch {
	case !s.packed:
		if sel != nil {
			for _, i := range sel {
				g = append(g, s.ordinal(i))
			}
		} else {
			for i := start; i < end; i++ {
				g = append(g, s.ordinal(int32(i)))
			}
		}
	default:
		for j := 0; j < m; j++ {
			g = append(g, 0)
		}
		for ki, kv := range keys {
			addKeys(g, kv, int32(s.mult[ki]), start, end, sel)
		}
	}
	s.gbuf = g

	// Membership and first appearance.
	if sel != nil {
		for j, i := range sel {
			gg := g[j]
			if acc.rowCount[gg] == 0 {
				acc.firstOrd[gg] = base + int64(i)
			}
			acc.rowCount[gg]++
		}
	} else {
		for j := 0; j < m; j++ {
			gg := g[j]
			if acc.rowCount[gg] == 0 {
				acc.firstOrd[gg] = base + int64(start+j)
			}
			acc.rowCount[gg]++
		}
	}

	// Aggregation kernels: one tight pass per aggregate.
	for ai := range specs {
		a := &acc.aggs[ai]
		if a.sumF != nil {
			if specs[ai].idArg {
				ids := bv.ids
				if sel != nil {
					for j, i := range sel {
						a.sumF[g[j]] += float64(ids.At(int(i)))
					}
				} else {
					for j, i := 0, start; i < end; j, i = j+1, i+1 {
						a.sumF[g[j]] += float64(ids.At(i))
					}
				}
			} else {
				vs := bv.vs
				if sel != nil {
					for j, i := range sel {
						a.sumF[g[j]] += vs[i]
					}
				} else {
					for j, i := 0, start; i < end; j, i = j+1, i+1 {
						a.sumF[g[j]] += vs[i]
					}
				}
			}
		}
		if a.sumI != nil {
			ids := bv.ids
			if sel != nil {
				for j, i := range sel {
					a.sumI[g[j]] += ids.At(int(i))
				}
			} else {
				for j, i := 0, start; i < end; j, i = j+1, i+1 {
					a.sumI[g[j]] += ids.At(i)
				}
			}
		}
		if a.minF != nil {
			vs := bv.vs
			if sel != nil {
				for j, i := range sel {
					gg, v := g[j], vs[i]
					if v < a.minF[gg] {
						a.minF[gg] = v
					}
					if v > a.maxF[gg] {
						a.maxF[gg] = v
					}
				}
			} else {
				for j, i := 0, start; i < end; j, i = j+1, i+1 {
					gg, v := g[j], vs[i]
					if v < a.minF[gg] {
						a.minF[gg] = v
					}
					if v > a.maxF[gg] {
						a.maxF[gg] = v
					}
				}
			}
		}
		if a.minI != nil {
			ids := bv.ids
			if sel != nil {
				for j, i := range sel {
					gg, id := g[j], ids.At(int(i))
					if id < a.minI[gg] {
						a.minI[gg] = id
					}
					if id > a.maxI[gg] {
						a.maxI[gg] = id
					}
				}
			} else {
				for j, i := 0, start; i < end; j, i = j+1, i+1 {
					gg, id := g[j], ids.At(i)
					if id < a.minI[gg] {
						a.minI[gg] = id
					}
					if id > a.maxI[gg] {
						a.maxI[gg] = id
					}
				}
			}
		}
	}
	return nil
}

// --- row sink ---

// rowSink yields each selected row to the SQL executor, built into one
// reused virtual row. A row scan runs on one worker, in block order, so
// its sink never merges.
type rowSink struct {
	bv    *blockVecs
	row   func(id, e, m, t, u int64, v float64) reldb.Row
	yield func(reldb.Row) error
}

func (s *rowSink) open(_ *reldb.ColumnBlock, bv *blockVecs) { s.bv = bv }

func (s *rowSink) fold(_ int64, start, end int, sel []int32) error {
	if sel != nil {
		for _, i := range sel {
			if err := s.emit(int(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for i := start; i < end; i++ {
		if err := s.emit(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *rowSink) emit(i int) error {
	v := s.bv
	return s.yield(s.row(v.ids.At(i), v.es.At(i), v.ms.At(i), v.ts.At(i), v.us.At(i), v.vs[i]))
}

func (s *rowSink) merge(blockSink) { panic("planner: a row scan runs on one worker") }

// --- the scan loop ---

// scanWorker is one scan goroutine's state: its sink plus the reusable
// selection buffer.
type scanWorker struct {
	f    *resultFilter
	sink blockSink
	sel  []int32
}

// scanBlock streams one block through the selection kernels into the
// sink, window by window, and reports whether the kernels ruled the
// whole block out unread. base is the block's global scan ordinal. It is
// the only place planned execution iterates performance_result rows.
func (w *scanWorker) scanBlock(ctx context.Context, b *reldb.ColumnBlock, base int64) (pruned bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, fmt.Errorf("planner: scan performance_result: %w", err)
	}
	bv, err := resultBlockVecs(b)
	if err != nil {
		return false, err
	}
	ks, none := bv.kernels(w.f)
	if none {
		return true, nil
	}
	w.sink.open(b, &bv)
	n := b.Len()
	for start := 0; start < n; start += vecBatch {
		end := min(start+vecBatch, n)
		var sel []int32
		if len(ks) > 0 {
			sel = ks[0].fill(w.sel[:0], start, end)
			for _, k := range ks[1:] {
				sel = k.refine(sel)
			}
			w.sel = sel
			if len(sel) == 0 {
				continue
			}
		}
		if err := w.sink.fold(base, start, end, sel); err != nil {
			return false, err
		}
	}
	return false, nil
}

// scanResults is the one planned scan of performance_result. Family
// specs gather their resolved ascending ID list; any other statement opens
// the block source over the pushed id bounds, and the kernels apply the
// pushed equalities and comparisons. Segment blocks fan out over at most
// maxWorkers workers, one sink each, merged in block order into the
// first; the tail's blocks, or the gathered ones, then fold into that
// sink one at a time. A block the kernels rule out counts as pruned, not
// scanned. It returns the merged sink.
func (p *Planner) scanResults(ctx context.Context, f *resultFilter, plan *Plan,
	maxWorkers int, newSink func() blockSink) (blockSink, error) {
	prof := plan.Profile
	head := &scanWorker{f: f, sink: newSink(), sel: make([]int32, 0, vecBatch)}
	tab, ok := p.store.Table("performance_result")
	if !ok {
		return nil, fmt.Errorf("datastore: no performance_result table: %w", datastore.ErrNotFound)
	}
	lo, hi := idBounds(f.nums)
	if f.impossible || lo > hi {
		return head.sink, nil
	}

	var base int64
	segmented := false
	seq := func(b *reldb.ColumnBlock) error {
		pruned, err := head.scanBlock(ctx, b, base)
		n := int64(b.Len())
		switch {
		case err != nil:
			return err
		case pruned:
			prof.BlocksPruned++
		default:
			prof.RowsScanned += n
			if segmented {
				prof.TailRows += n
			}
		}
		base += n
		return nil
	}
	var start time.Time
	var err error
	if len(f.fams) > 0 {
		start = time.Now()
		err = tab.Gather(f.famIDs, seq)
	} else {
		var scan *reldb.BlockScan
		if scan, err = p.store.Blocks("performance_result", lo, hi); err != nil {
			return nil, err
		}
		segmented = scan.Segmented()
		prof.BlocksPruned += scan.Pruned
		if len(scan.Segments) > 0 {
			if base, err = p.fanOut(ctx, scan.Segments, head, plan, maxWorkers, newSink); err != nil {
				return nil, err
			}
		}
		start = time.Now()
		err = scan.Tail(seq)
	}
	prof.KernelNanos += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	return head.sink, nil
}

// fanOut scans immutable segment blocks in parallel: contiguous,
// row-balanced runs of blocks go to one part each (head takes the
// first), and the parts' sinks merge into head's in block order. It
// returns the rows scanned, the next block's global scan ordinal.
func (p *Planner) fanOut(ctx context.Context, blocks []*reldb.ColumnBlock, head *scanWorker, plan *Plan,
	maxWorkers int, newSink func() blockSink) (int64, error) {
	lens := blockLens(blocks)
	parts := partitionBlocks(lens, min(par.Workers(len(blocks)), maxWorkers))
	bases := make([]int64, len(blocks))
	var total int64
	for i, n := range lens {
		bases[i] = total
		total += int64(n)
	}
	prof := plan.Profile
	prof.WorkerRows = partRows(lens, parts)

	kernelStart := time.Now()
	workers := make([]*scanWorker, len(parts))
	workers[0] = head
	for pi := 1; pi < len(parts); pi++ {
		workers[pi] = &scanWorker{f: head.f, sink: newSink(), sel: make([]int32, 0, vecBatch)}
	}
	pruned := make([]bool, len(blocks))
	finished := make([]int, len(parts)) // blocks each part finished
	err := par.Each(len(parts), func(pi int) error {
		for bi := parts[pi][0]; bi < parts[pi][1]; bi++ {
			var err error
			if pruned[bi], err = workers[pi].scanBlock(ctx, blocks[bi], bases[bi]); err != nil {
				return err
			}
			finished[pi]++
		}
		return nil
	})
	prof.KernelNanos += time.Since(kernelStart).Nanoseconds()
	for pi, pr := range parts {
		for bi := pr[0]; bi < pr[0]+finished[pi]; bi++ {
			if pruned[bi] {
				prof.BlocksPruned++
				continue
			}
			prof.RowsScanned += int64(lens[bi])
			prof.SegmentRows += int64(lens[bi])
			prof.BlocksScanned++
		}
	}
	if err != nil {
		return 0, err
	}
	mergeStart := time.Now()
	for _, w := range workers[1:] {
		head.sink.merge(w.sink)
	}
	prof.MergeNanos += time.Since(mergeStart).Nanoseconds()
	return total, nil
}
