package datastore

// Batched, parallel result materialization — the read hot path behind
// query.RetrieveCtx and /v1/results.
//
// The per-ID path (ResultByID) pays two or more PK-prefix scans per
// result, each taking the engine read lock once. At SMG-UV scale (~10k
// results per execution) a single retrieval is millions of lock
// acquisitions. The batch path amortizes all of it per query instead of
// per result:
//
//   1. Take the four metadata dictionaries' ID → name views (execution,
//      metric, performance_tool, units) from the names directory.
//   2. Read the matched performance_result rows, then their
//      result_has_focus links, through one keyed read (keyed): one pass
//      over the table's block source when the IDs fill their range
//      densely, one primary-key Lookup per ID otherwise. Links come
//      grouped per result in PK order (ascending focus ID — identical to
//      the per-ID path's context ordering).
//   3. Decode each distinct focus exactly once into a shared
//      focus → Context cache (foci are heavily shared across results):
//      its type and focus_has_resource links by the same keyed read,
//      then one view of the resource dictionary maps every resource ID
//      to its name.
//   4. Assemble PerformanceResults in contiguous spans of the ID slice
//      (par.Range), preserving input order.
//
// Consistency matches the per-ID path: neither holds a lock across
// results, so a query racing a writer can observe a mix of generations
// either way. Materialized Contexts may share Resources slices between
// results that reference the same focus; callers must treat returned
// results as read-only (every current consumer does).

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/par"
	"perftrack/internal/reldb"
)

// MaterializeOptions tunes the batch materializer. The zero value picks
// sensible defaults. Assembly fans out through par at GOMAXPROCS width;
// the reads before it are one keyed read per table.
type MaterializeOptions struct {
	// ChunkSize bounds how many results MaterializeStreamCtx assembles
	// per emitted batch. <=0 means defaultMaterializeChunk; len(ids)
	// gives the single batch MaterializeResultsCtx produces.
	ChunkSize int
}

const defaultMaterializeChunk = 4096

// resultDicts are the views a performance_result row's execution,
// metric, tool and units columns resolve through, taken once per query.
type resultDicts struct{ exec, metric, tool, units Dict }

func (s *Store) resultDicts() resultDicts {
	return resultDicts{
		exec:   s.names.dict(dictExecution),
		metric: s.names.dict(dictMetric),
		tool:   s.names.dict(dictTool),
		units:  s.names.dict(dictUnits),
	}
}

// resolve fills in a result's four names from its row's IDs.
func (d *resultDicts) resolve(pr *core.PerformanceResult, exec, metric, tool, units int64) error {
	if pr.Execution = d.exec.Name(exec); pr.Execution == "" {
		return fmt.Errorf("datastore: no execution id %d", exec)
	}
	if pr.Metric = d.metric.Name(metric); pr.Metric == "" {
		return fmt.Errorf("datastore: no metric id %d", metric)
	}
	if pr.Tool = d.tool.Name(tool); pr.Tool == "" {
		return fmt.Errorf("datastore: no performance_tool id %d", tool)
	}
	if pr.Units = d.units.Name(units); pr.Units == "" {
		return fmt.Errorf("datastore: no units id %d", units)
	}
	return nil
}

// posIndex maps each distinct input ID to its index in the
// deduplicated slice. Matched result IDs come out of the pr-filter
// engine sorted and near-sequential, so the common case is a compact
// range served by a direct-index table (one bounds check instead of a
// hash per scanned row); wide ranges fall back to a map. Which of the
// two it holds is also how keyed reads the IDs' rows.
type posIndex struct {
	uniq  []int64
	base  int64
	slots []int32 // index+1; 0 = absent
	m     map[int64]int
}

// reset rebuilds the index over ids, reusing backing storage from any
// previous use (pooled indexes come through here between chunks).
func (p *posIndex) reset(ids []int64) {
	lo, hi := slices.Min(ids), slices.Max(ids)
	p.base, p.uniq = lo, slices.Grow(p.uniq[:0], len(ids))
	if span := hi - lo + 1; span <= int64(4*len(ids))+1024 && len(ids) < 1<<31-1 {
		p.m = nil
		if int64(cap(p.slots)) < span {
			p.slots = make([]int32, span)
		} else {
			p.slots = p.slots[:span]
			clear(p.slots)
		}
		for _, id := range ids {
			if p.slots[id-lo] == 0 {
				p.uniq = append(p.uniq, id)
				p.slots[id-lo] = int32(len(p.uniq))
			}
		}
	} else {
		p.slots = nil
		if p.m == nil {
			p.m = make(map[int64]int, len(ids))
		} else {
			clear(p.m)
		}
		for _, id := range ids {
			if _, ok := p.m[id]; !ok {
				p.m[id] = len(p.uniq)
				p.uniq = append(p.uniq, id)
			}
		}
	}
}

// maxPooledIndex caps the slots and IDs of a posIndex returned to the
// store's pool, so one wide read does not pin its memory forever.
const maxPooledIndex = 1 << 16

// borrowIndex returns a posIndex over ids from the store's pool; the
// caller gives it back with returnIndex once its read is done.
func (s *Store) borrowIndex(ids []int64) *posIndex {
	p := s.indexes.Get().(*posIndex)
	p.reset(ids)
	return p
}

func (s *Store) returnIndex(p *posIndex) {
	if cap(p.slots) <= maxPooledIndex && cap(p.uniq) <= maxPooledIndex && len(p.m) <= maxPooledIndex {
		s.indexes.Put(p)
	}
}

func (p *posIndex) get(id int64) (int, bool) {
	if p.slots != nil {
		off := id - p.base
		if off < 0 || off >= int64(len(p.slots)) || p.slots[off] == 0 {
			return 0, false
		}
		return int(p.slots[off]) - 1, true
	}
	i, ok := p.m[id]
	return i, ok
}

// matFocus is one decoded focus: its type and its resource names in
// focus_has_resource PK order (ascending resource ID). ctx1 is the
// focus as a ready-made single-context list: most results carry exactly
// one focus, and sharing one slice per focus across all of them keeps
// the assembly phase from allocating per result.
type matFocus struct {
	typ  core.FocusType
	res  []core.ResourceName
	ctx1 []core.Context
}

// materializer carries the per-query state shared by every chunk of one
// materialization: the dictionary views and the focus cache.
type materializer struct {
	s     *Store
	dicts resultDicts
	foci  map[int64]*matFocus // focus ID → decoded, grows chunk by chunk
}

func (s *Store) newMaterializer(ctx context.Context) (*materializer, error) {
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	return &materializer{s: s, dicts: s.resultDicts(), foci: make(map[int64]*matFocus)}, nil
}

// matScratch is run's pooled working memory: everything sized by the
// chunk that does not escape into the returned results. Stale contents
// never leak — recs is cleared on reuse, and the rest are fully
// overwritten.
type matScratch struct {
	pos    posIndex
	recs   []resultRec
	ctxOff []int
	arena  []int64
}

// resultRec is one performance_result row plus its focus links, staged
// between the fetch phases and assembly.
type resultRec struct {
	found                     bool
	exec, metric, tool, units int64 // dictionary IDs
	value                     float64
	foci                      []int64
}

// cancelled reports a done context as a wrapped error. The materializer
// checks it once per chunk phase, so an abandoned request stops at the
// next phase boundary instead of finishing the retrieval.
func cancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("datastore: materialize: %w", err)
	}
	return nil
}

// keyed calls fn(b, i, j) for every row of table whose leading
// primary-key value is want.uniq[j], each key's rows together and in
// primary-key order. Keys that fill their range compactly (want holds a
// direct-index table) are read by one pass over the table's block
// source across that range, keys ascending, ctx checked once per block:
// a range read costs the rows in its range, whatever the table holds.
// Any other set is read by one primary-key Lookup per key in want.uniq
// order, ctx checked every 1024 keys. A segment block is pruned, not
// trimmed, so the pass keeps only rows whose key is in want. fn may run
// under the engine read lock and must not call the engine; b is valid
// only until it returns, and an error from it stops the read.
func (s *Store) keyed(ctx context.Context, table string, want *posIndex, fn func(b *reldb.ColumnBlock, i, j int) error) error {
	if want.slots != nil {
		scan, err := s.Blocks(table, want.base, want.base+int64(len(want.slots))-1)
		if err != nil {
			return err
		}
		return scan.Each(func(b *reldb.ColumnBlock) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("datastore: %s read: %w", table, err)
			}
			keys := b.Ints(0)
			for i := range b.Len() {
				if j, ok := want.get(keys.At(i)); ok {
					if err := fn(b, i, j); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	tab, _ := s.eng.Table(table) // a schema table, as every caller names
	var ferr error
	j, key := 0, []reldb.Value{{}}
	visit := func(b *reldb.ColumnBlock, i int) bool {
		ferr = fn(b, i, j)
		return ferr == nil
	}
	for j = range want.uniq {
		if j%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("datastore: %s read: %w", table, err)
			}
		}
		key[0] = reldb.Int(want.uniq[j])
		if err := tab.Lookup("", key, visit); err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// stageLinks reads a link table (owner_id, member_id) for the owners in
// want and calls set(j, members) once per owner want.uniq[j] that has
// links, members ascending (the PK order). An owner's links arrive
// together, so each is one stretch of a shared arena instead of a tiny
// slice grown per owner; the arena, reused from arena's storage, is
// returned for the next call.
func (s *Store) stageLinks(ctx context.Context, table string, want *posIndex, arena []int64, set func(j int, members []int64)) ([]int64, error) {
	arena = arena[:0]
	owner, from := -1, 0
	flush := func() {
		if owner >= 0 {
			set(owner, arena[from:len(arena):len(arena)])
		}
	}
	err := s.keyed(ctx, table, want, func(b *reldb.ColumnBlock, i, j int) error {
		if j != owner {
			flush()
			owner, from = j, len(arena)
		}
		arena = append(arena, b.Ints(1).At(i))
		return nil
	})
	if err != nil {
		return arena, err
	}
	flush()
	return arena, nil
}

// ResultColumns reads the performance_result rows with the given IDs
// (ascending, without duplicates) by one keyed read and calls fn with
// each one's index in ids, its metric and units dictionary IDs and its
// value, in ascending ID. No row, result or name is built, so a caller
// folding values over an execution costs O(rows read) and no per-result
// object. fn may run under the engine's read lock, so it must not read
// through the store. An ID no row carries is ErrNotFound.
func (s *Store) ResultColumns(ctx context.Context, ids []int64, fn func(i int, metric, units int64, value float64) error) error {
	if len(ids) == 0 {
		return nil
	}
	pos := s.borrowIndex(ids)
	defer s.returnIndex(pos)
	found := 0
	if err := s.keyed(ctx, "performance_result", pos, func(b *reldb.ColumnBlock, i, j int) error {
		found++
		return fn(j, b.Ints(2).At(i), b.Ints(4).At(i), b.Float64s(5)[i])
	}); err != nil {
		return err
	}
	if found != len(pos.uniq) {
		return fmt.Errorf("datastore: %d of %d performance results not found: %w", len(pos.uniq)-found, len(pos.uniq), ErrNotFound)
	}
	return nil
}

// ResultFoci calls fn(i, focus) for every result_has_focus link of the
// result ids[i] (ids ascending, without duplicates), read by one keyed
// read: grouped per result, ascending focus ID within each. fn may run
// under the engine's read lock, so it must not read through the store.
func (s *Store) ResultFoci(ctx context.Context, ids []int64, fn func(i int, focus int64)) error {
	if len(ids) == 0 {
		return nil
	}
	pos := s.borrowIndex(ids)
	defer s.returnIndex(pos)
	return s.keyed(ctx, "result_has_focus", pos, func(b *reldb.ColumnBlock, i, j int) error {
		fn(j, b.Ints(1).At(i))
		return nil
	})
}

// FocusResources sets rids[j] to the resource IDs of the focus fids[j]
// (fids ascending, without duplicates), ascending: the context the
// materializer gives a result holding that focus, read by the same keyed
// read of focus_has_resource. rids and the arena their IDs share are the
// caller's, reused from the storage of the rids and arena given and
// returned for the next call; a focus without resources gets none.
func (s *Store) FocusResources(ctx context.Context, fids []int64, rids [][]int64, arena []int64) ([][]int64, []int64, error) {
	rids = slices.Grow(rids[:0], len(fids))[:len(fids)]
	clear(rids)
	if len(fids) == 0 {
		return rids, arena, nil
	}
	pos := s.borrowIndex(fids)
	defer s.returnIndex(pos)
	arena, err := s.stageLinks(ctx, "focus_has_resource", pos, arena, func(j int, members []int64) {
		rids[j] = members
	})
	return rids, arena, err
}

// run materializes one chunk of IDs, preserving input order (duplicate
// IDs yield duplicate pointers to one shared result).
func (m *materializer) run(ctx context.Context, ids []int64) ([]*core.PerformanceResult, error) {
	if len(ids) == 0 {
		return []*core.PerformanceResult{}, nil
	}
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	// Dedupe while remembering each distinct ID's index. The chunk-sized
	// working memory comes from the store's scratch pool; it is returned
	// only on success paths (abandoned scratch just falls to the GC).
	sc := m.s.scratch.Get().(*matScratch)
	sc.pos.reset(ids)
	pos := &sc.pos
	uniq := pos.uniq
	if cap(sc.recs) < len(uniq) {
		sc.recs = make([]resultRec, len(uniq))
	} else {
		sc.recs = sc.recs[:len(uniq)]
		clear(sc.recs)
	}
	recs := sc.recs
	m.s.tel.materializations.Add(1)
	m.s.tel.resultsRead.Add(uint64(len(uniq)))

	// Phase 1: performance_result rows. The fetch span covers phases 1–2
	// (row fetch plus focus-link resolution) and is ended explicitly on
	// every path: a deferred closure here measurably slows the whole
	// chunk (it forces a larger frame on run, which the per-chunk worker
	// goroutines then pay for in stack growth).
	_, fetchSpan := obs.StartSpan(ctx, "materialize.fetch")
	fetchSpan.Annotate("results", strconv.Itoa(len(uniq)))
	if err := m.s.keyed(ctx, "performance_result", pos, func(b *reldb.ColumnBlock, i, j int) error {
		recs[j] = resultRec{
			found:  true,
			exec:   b.Ints(1).At(i),
			metric: b.Ints(2).At(i),
			tool:   b.Ints(3).At(i),
			units:  b.Ints(4).At(i),
			value:  b.Float64s(5)[i],
		}
		return nil
	}); err != nil {
		fetchSpan.End()
		return nil, err
	}
	for i := range recs {
		if !recs[i].found {
			fetchSpan.End()
			return nil, fmt.Errorf("datastore: no performance result %d: %w", uniq[i], ErrNotFound)
		}
	}

	// Phase 2: result → focus links, grouped per result in PK order
	// (ascending focus ID), matching ResultByID's context ordering.
	if err := cancelled(ctx); err != nil {
		fetchSpan.End()
		return nil, err
	}
	arena, err := m.s.stageLinks(ctx, "result_has_focus", pos, sc.arena, func(j int, foci []int64) { recs[j].foci = foci })
	sc.arena = arena // keep any growth for the next chunk
	if err != nil {
		fetchSpan.End()
		return nil, err
	}
	fetchSpan.End()

	// Phase 3: decode each focus not yet in the per-query cache.
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	_, focusSpan := obs.StartSpan(ctx, "materialize.focus")
	// links counts only multi-focus results: single-focus results (the
	// common case) reuse their focus's shared ctx1 slice at assembly and
	// need no arena slot. refs counts every focus reference in the chunk.
	links, refs := 0, 0
	if cap(sc.ctxOff) < len(recs) {
		sc.ctxOff = make([]int, len(recs))
	}
	ctxOff := sc.ctxOff[:len(recs)]
	for i := range recs {
		ctxOff[i] = links
		n := len(recs[i].foci)
		refs += n
		if n > 1 {
			links += n
		}
	}
	// Foci are shared heavily across results, so dedupe while collecting
	// (a small set) instead of sorting one entry per link.
	var needed []int64
	var pending map[int64]struct{}
	for i := range recs {
		for _, fid := range recs[i].foci {
			if _, ok := m.foci[fid]; ok {
				continue
			}
			if pending == nil {
				pending = make(map[int64]struct{}, 64)
			}
			if _, dup := pending[fid]; !dup {
				pending[fid] = struct{}{}
				needed = append(needed, fid)
			}
		}
	}
	// A hit is a reference served without its own decode: its focus was
	// decoded by an earlier chunk, or is decoded once for the whole chunk.
	// A miss is a decode.
	hits := refs - len(needed)
	m.s.tel.focusCacheHits.Add(uint64(hits))
	focusSpan.Annotate("cached", strconv.Itoa(hits))
	if len(needed) > 0 {
		decode := sortDedup(needed)
		m.s.tel.focusCacheMisses.Add(uint64(len(decode)))
		focusSpan.Annotate("decoded", strconv.Itoa(len(decode)))
		if err := m.decodeFoci(ctx, decode); err != nil {
			focusSpan.End()
			return nil, err
		}
	}
	focusSpan.End()

	// Phase 4: assemble span by span into one block (a single
	// allocation for the whole chunk), then lay out pointers in input
	// order.
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	_, assembleSpan := obs.StartSpan(ctx, "materialize.assemble")
	defer assembleSpan.End()
	assembled := make([]core.PerformanceResult, len(uniq))
	// Contexts for the whole chunk live in one arena block, sliced per
	// result at the offsets recorded above; workers fill disjoint ranges.
	ctxArena := make([]core.Context, links)
	if err := par.Range(len(uniq), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			rec := &recs[i]
			pr := &assembled[i]
			pr.Value = rec.value
			if err := m.dicts.resolve(pr, rec.exec, rec.metric, rec.tool, rec.units); err != nil {
				return err
			}
			switch n := len(rec.foci); {
			case n == 1:
				pr.Contexts = m.foci[rec.foci[0]].ctx1
			case n > 1:
				ctxs := ctxArena[ctxOff[i] : ctxOff[i]+n : ctxOff[i]+n]
				for k, fid := range rec.foci {
					f := m.foci[fid]
					ctxs[k] = core.Context{Type: f.typ, Resources: f.res}
				}
				pr.Contexts = ctxs
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]*core.PerformanceResult, len(ids))
	if len(uniq) == len(ids) {
		// No duplicates: uniq order is input order.
		for i := range assembled {
			out[i] = &assembled[i]
		}
		m.s.scratch.Put(sc)
		return out, nil
	}
	for j, id := range ids {
		i, _ := pos.get(id) // every input ID was found in phase 1
		out[j] = &assembled[i]
	}
	m.s.scratch.Put(sc)
	return out, nil
}

// decodeFoci resolves the given sorted, deduplicated focus IDs into the
// cache: type plus resource names in ascending resource-ID order. The
// focus and focus_has_resource rows are read first, by keyed reads, then
// one view of the resource dictionary maps every resource ID to its name.
func (m *materializer) decodeFoci(ctx context.Context, fids []int64) error {
	want := m.s.borrowIndex(fids)
	defer m.s.returnIndex(want)
	types := make([]core.FocusType, len(fids))
	found := 0
	if err := m.s.keyed(ctx, "focus", want, func(b *reldb.ColumnBlock, i, j int) error {
		ft, err := core.ParseFocusType(b.Strings(1)[i])
		types[j] = ft
		found++
		return err
	}); err != nil {
		return err
	}
	if found != len(fids) {
		return fmt.Errorf("datastore: %d of %d foci missing", len(fids)-found, len(fids))
	}
	members := make([][]int64, len(fids))
	if _, err := m.s.stageLinks(ctx, "focus_has_resource", want, nil, func(j int, rids []int64) { members[j] = rids }); err != nil {
		return err
	}
	res := m.s.names.dict(dictResource)
	for i := range fids {
		names := resourceNames(res, members[i])
		m.foci[fids[i]] = &matFocus{
			typ:  types[i],
			res:  names,
			ctx1: []core.Context{{Type: types[i], Resources: names}},
		}
	}
	return nil
}

// MaterializeResultsCtx materializes the given performance-result IDs
// in one batch, preserving input order, with default options. Returned
// results may share Contexts data between results referencing the same
// focus; callers must treat them as read-only. When a trace rides ctx,
// the materializer records its phase spans (materialize.fetch, .focus,
// .assemble) in the request's span tree.
func (s *Store) MaterializeResultsCtx(ctx context.Context, ids []int64) ([]*core.PerformanceResult, error) {
	m, err := s.newMaterializer(ctx)
	if err != nil {
		return nil, err
	}
	return m.run(ctx, ids)
}

// MaterializeStreamCtx materializes IDs in bounded chunks, invoking emit
// with each batch in input order, so memory stays bounded on
// full-corpus retrievals. The dictionary views and focus cache are
// shared across chunks, and each chunk records its own phase spans. A
// non-nil error from emit aborts the stream.
func (s *Store) MaterializeStreamCtx(ctx context.Context, ids []int64, opt MaterializeOptions, emit func([]*core.PerformanceResult) error) error {
	m, err := s.newMaterializer(ctx)
	if err != nil {
		return err
	}
	chunk := opt.ChunkSize
	if chunk <= 0 {
		chunk = defaultMaterializeChunk
	}
	for lo := 0; lo < len(ids); lo += chunk {
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		out, err := m.run(ctx, ids[lo:hi])
		if err != nil {
			return err
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}
