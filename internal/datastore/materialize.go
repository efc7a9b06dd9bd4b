package datastore

// Batched, parallel result materialization — the read hot path behind
// QueryResults, query.Retrieve and /v1/results.
//
// The per-ID path (ResultByID) pays two or more PK-prefix scans per
// result, each taking the engine read lock once. At SMG-UV scale (~10k
// results per execution) a single retrieval is millions of lock
// acquisitions. The batch path amortizes all of it per query instead of
// per result:
//
//   1. Take the four metadata dictionaries' ID → name views (execution,
//      metric, performance_tool, units) from the names directory.
//   2. Fetch the matched performance_result rows either with per-ID
//      Gets sharded over workers (sparse) or one pass over the table's
//      block source — segment blocks, then the tail's —
//      bounded by the chunk's ID range and filtered by the ID set
//      (dense).
//   3. Resolve result_has_focus the same way, grouping focus IDs per
//      result in PK order (ascending focus ID — identical to the
//      per-ID path's context ordering).
//   4. Decode each distinct focus exactly once into a shared
//      focus → Context cache (foci are heavily shared across results):
//      one focus Get plus one focus_has_resource scan per focus — or,
//      when most of the table is wanted, one pass over each table's
//      blocks, the focus type read as a column — then one view of the
//      resource dictionary maps every resource ID to its name.
//   5. Assemble PerformanceResults over N worker goroutines sharding
//      the ID slice, preserving input order.
//
// Consistency matches the per-ID path: neither holds a lock across
// results, so a query racing a writer can observe a mix of generations
// either way. Materialized Contexts may share Resources slices between
// results that reference the same focus; callers must treat returned
// results as read-only (every current consumer does).

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/reldb"
)

// MaterializeOptions tunes the batch materializer. The zero value picks
// sensible defaults.
type MaterializeOptions struct {
	// Workers bounds the materialization fan-out. <=0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// ChunkSize bounds how many results MaterializeStream assembles
	// per emitted batch. <=0 means defaultMaterializeChunk. Ignored by
	// MaterializeResults, which produces one batch.
	ChunkSize int
}

const (
	defaultMaterializeChunk = 4096

	// denseScanDivisor selects between per-ID Gets and one block scan:
	// when the wanted set is at least 1/denseScanDivisor of the table, a
	// single scan beats len(ids) locked point lookups.
	denseScanDivisor = 4
)

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
// hash per scanned row); wide ranges fall back to a map.
type posIndex struct {
	uniq  []int64
	base  int64
	slots []int32 // index+1; 0 = absent
	m     map[int64]int
}

func newPosIndex(ids []int64) *posIndex {
	p := &posIndex{}
	p.reset(ids)
	return p
}

// reset rebuilds the index over ids, reusing backing storage from any
// previous use (pooled indexes come through here between chunks).
func (p *posIndex) reset(ids []int64) {
	lo, hi := ids[0], ids[0]
	for _, id := range ids[1:] {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	p.base = lo
	if cap(p.uniq) < len(ids) {
		p.uniq = make([]int64, 0, len(ids))
	} else {
		p.uniq = p.uniq[:0]
	}
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
	s       *Store
	workers int
	dicts   resultDicts
	foci    map[int64]*matFocus // focus ID → decoded, grows chunk by chunk
}

func (s *Store) newMaterializer(ctx context.Context, opt MaterializeOptions) (*materializer, error) {
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	m := &materializer{s: s, workers: opt.Workers, dicts: s.resultDicts(), foci: make(map[int64]*matFocus)}
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	return m, nil
}

// matScratch is run's pooled working memory: everything sized by the
// chunk that does not escape into the returned results. Stale contents
// never leak — recs and counts are cleared on reuse, starts is only read
// where counts marks it written, and the rest are fully overwritten.
type matScratch struct {
	pos            posIndex
	recs           []resultRec
	starts, counts []int
	ctxOff         []int
	arena          []int64
}

// ints returns buf resized to n without clearing, growing as needed.
func (sc *matScratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// resultRec is one performance_result row plus its focus links, staged
// between the fetch phases and assembly.
type resultRec struct {
	found                     bool
	exec, metric, tool, units int64 // dictionary IDs
	value                     float64
	foci                      []int64
}

// shardRange splits [0, n) into contiguous spans, runs fn(lo, hi) on
// each from its own goroutine, and returns the first error.
func shardRange(n, workers int, fn func(lo, hi int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	errs := make([]error, workers)
	span := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * span
		hi := lo + span
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// minMax returns the bounds of a non-empty ID slice.
func minMax(ids []int64) (lo, hi int64) {
	lo, hi = ids[0], ids[0]
	for _, id := range ids[1:] {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	return lo, hi
}

// scanResults streams performance_result's block source over the wanted
// ID range (PK == row ID), calling fn with the wanted index of every row
// whose ID is in pos and its dictionary IDs and value, in block order:
// ascending ID. A segment is pruned, not trimmed, so the pos test is
// what keeps rows outside the range out. ctx is checked once per block;
// an error from fn stops the scan.
func (s *Store) scanResults(ctx context.Context, pos *posIndex, fn func(i int, exec, metric, tool, units int64, value float64) error) error {
	lo, hi := minMax(pos.uniq)
	scan, err := s.Blocks("performance_result", lo, hi)
	if err != nil {
		return err
	}
	return scan.Each(func(b *reldb.ColumnBlock) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("datastore: performance_result scan: %w", err)
		}
		ids, execs, metrics, tools, units := b.IDs(), b.Ints(1), b.Ints(2), b.Ints(3), b.Ints(4)
		vals := b.Float64s(5)
		for i := range b.Len() {
			if j, ok := pos.get(ids.At(i)); ok {
				if err := fn(j, execs.At(i), metrics.At(i), tools.At(i), units.At(i), vals[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// scanLinks streams a two-column link table (owner_id, member_id)
// through its block source, calling add for every link whose owner is
// in the wanted set. Blocks arrive in PK order and unflushed owners are
// >= the flushed maximum (anything else would have invalidated the
// segment view), so each owner's members arrive contiguously and
// ascending whatever mix of segment and tail blocks carries them.
// ctx is checked once per block.
func (s *Store) scanLinks(ctx context.Context, table string, want *posIndex, add func(i int, member int64)) error {
	lo, hi := minMax(want.uniq)
	scan, err := s.Blocks(table, lo, hi)
	if err != nil {
		return err
	}
	return scan.Each(func(b *reldb.ColumnBlock) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("datastore: %s scan: %w", table, err)
		}
		owners, members := b.Ints(0), b.Ints(1)
		for i := range b.Len() {
			if j, ok := want.get(owners.At(i)); ok {
				add(j, members.At(i))
			}
		}
		return nil
	})
}

// ResultColumns reads the performance_result rows with the given IDs
// (ascending, without duplicates) from the table's block source and
// calls fn with each one's index in ids, its metric and units dictionary
// IDs and its value, in block order: ascending ID. No row, result or name
// is built, so a caller folding values over an execution costs O(rows
// scanned) and no per-result object. ctx is checked once per block; an ID
// no block carried is ErrNotFound.
func (s *Store) ResultColumns(ctx context.Context, ids []int64, fn func(i int, metric, units int64, value float64) error) error {
	if len(ids) == 0 {
		return nil
	}
	pos := newPosIndex(ids)
	found := 0
	if err := s.scanResults(ctx, pos, func(i int, _, metric, _, units int64, value float64) error {
		found++
		return fn(i, metric, units, value)
	}); err != nil {
		return err
	}
	if found != len(pos.uniq) {
		return fmt.Errorf("datastore: %d of %d performance results not found: %w", len(pos.uniq)-found, len(pos.uniq), ErrNotFound)
	}
	return nil
}

// ResultFoci calls fn(i, focus) for every result_has_focus link of the
// result ids[i] (ids ascending, without duplicates), read from the
// table's block source in one pass over the IDs' range: grouped per
// result, ascending focus ID within each. ctx is checked once per block.
func (s *Store) ResultFoci(ctx context.Context, ids []int64, fn func(i int, focus int64)) error {
	if len(ids) == 0 {
		return nil
	}
	return s.scanLinks(ctx, "result_has_focus", newPosIndex(ids), fn)
}

// FocusResources returns the resource names of each focus in fids
// (sorted, without duplicates), ascending by resource ID: the context the
// materializer gives a result holding that focus. ctx is checked once
// per block when the foci are read by block passes.
func (s *Store) FocusResources(ctx context.Context, fids []int64) ([][]core.ResourceName, error) {
	if len(fids) == 0 {
		return nil, nil
	}
	m := &materializer{s: s, workers: runtime.GOMAXPROCS(0), foci: make(map[int64]*matFocus, len(fids))}
	if err := m.decodeFoci(ctx, fids); err != nil {
		return nil, err
	}
	out := make([][]core.ResourceName, len(fids))
	for i, fid := range fids {
		out[i] = m.foci[fid].res
	}
	return out, nil
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
	prTab, ok := m.s.eng.Table("performance_result")
	if !ok {
		fetchSpan.End()
		return nil, fmt.Errorf("datastore: no performance_result table: %w", ErrNotFound)
	}
	dense := len(uniq)*denseScanDivisor >= prTab.Len()
	if dense {
		if err := m.s.scanResults(ctx, pos, func(j int, exec, metric, tool, units int64, value float64) error {
			recs[j] = resultRec{found: true, exec: exec, metric: metric, tool: tool, units: units, value: value}
			return nil
		}); err != nil {
			fetchSpan.End()
			return nil, err
		}
	} else {
		if err := shardRange(len(uniq), m.workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				row, ok := prTab.Get(uniq[i])
				if !ok {
					continue // reported below, like the dense path
				}
				recs[i] = resultRec{
					found:  true,
					exec:   row[1].Int64(),
					metric: row[2].Int64(),
					tool:   row[3].Int64(),
					units:  row[4].Int64(),
					value:  row[5].Float64(),
				}
			}
			return nil
		}); err != nil {
			fetchSpan.End()
			return nil, err
		}
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
	rhfTab, ok := m.s.eng.Table("result_has_focus")
	if !ok {
		fetchSpan.End()
		return nil, fmt.Errorf("datastore: no result_has_focus table: %w", ErrNotFound)
	}
	if dense {
		// The PK is (result_id, focus_id), so the block scan hands every
		// result's links contiguously: stage them in one shared arena
		// and slice it up afterwards instead of growing one tiny slice
		// per result.
		if cap(sc.arena) < rhfTab.Len() {
			sc.arena = make([]int64, 0, rhfTab.Len())
		}
		arena := sc.arena[:0]
		starts := sc.ints(&sc.starts, len(uniq))
		counts := sc.ints(&sc.counts, len(uniq))
		clear(counts)
		stage := func(i int, fid int64) {
			if counts[i] == 0 {
				starts[i] = len(arena)
			}
			arena = append(arena, fid)
			counts[i]++
		}
		if err := m.s.scanLinks(ctx, "result_has_focus", pos, stage); err != nil {
			fetchSpan.End()
			return nil, err
		}
		sc.arena = arena // keep any growth for the next chunk
		for i := range recs {
			if counts[i] > 0 {
				recs[i].foci = arena[starts[i] : starts[i]+counts[i] : starts[i]+counts[i]]
			}
		}
	} else {
		if err := shardRange(len(uniq), m.workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := rhfTab.PKScan([]reldb.Value{reldb.Int(uniq[i])},
					func(_ int64, link reldb.Row) bool {
						recs[i].foci = append(recs[i].foci, link[1].Int64())
						return true
					}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fetchSpan.End()
			return nil, err
		}
	}

	fetchSpan.End()

	// Phase 3: decode each focus not yet in the per-query cache.
	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	_, focusSpan := obs.StartSpan(ctx, "materialize.focus")
	// links counts only multi-focus results: single-focus results (the
	// common case) reuse their focus's shared ctx1 slice at assembly and
	// need no arena slot. refs counts every focus reference in the chunk,
	// the population cache hits and misses are both drawn from.
	links, refs := 0, 0
	ctxOff := sc.ints(&sc.ctxOff, len(recs))
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
	misses := 0
	for i := range recs {
		for _, fid := range recs[i].foci {
			if _, ok := m.foci[fid]; ok {
				continue
			}
			misses++
			if pending == nil {
				pending = make(map[int64]struct{}, 64)
			}
			if _, dup := pending[fid]; !dup {
				pending[fid] = struct{}{}
				needed = append(needed, fid)
			}
		}
	}
	m.s.tel.focusCacheHits.Add(uint64(refs - misses))
	focusSpan.Annotate("cached", strconv.Itoa(refs-misses))
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

	// Phase 4: assemble over the worker pool into one block (a single
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
	if err := shardRange(len(uniq), m.workers, func(lo, hi int) error {
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
// cache: type plus resource names in ascending resource-ID order. All
// engine reads happen first (sharded over workers), then one view of the
// resource dictionary maps every resource ID to its name.
func (m *materializer) decodeFoci(ctx context.Context, fids []int64) error {
	fTab, ok := m.s.eng.Table("focus")
	if !ok {
		return fmt.Errorf("datastore: no focus table: %w", ErrNotFound)
	}
	fhrTab, ok := m.s.eng.Table("focus_has_resource")
	if !ok {
		return fmt.Errorf("datastore: no focus_has_resource table: %w", ErrNotFound)
	}
	types := make([]core.FocusType, len(fids))
	members := make([][]int64, len(fids))
	if len(fids)*denseScanDivisor >= fTab.Len() {
		fpos := newPosIndex(fids)
		found := make([]bool, len(fids))
		scan, err := m.s.Blocks("focus", fids[0], fids[len(fids)-1])
		if err != nil {
			return err
		}
		if err := scan.Each(func(b *reldb.ColumnBlock) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("datastore: focus scan: %w", err)
			}
			ids, kinds := b.IDs(), b.Strings(1)
			for k := range b.Len() {
				i, ok := fpos.get(ids.At(k))
				if !ok {
					continue
				}
				ft, err := core.ParseFocusType(kinds[k])
				if err != nil {
					return err
				}
				types[i], found[i] = ft, true
			}
			return nil
		}); err != nil {
			return err
		}
		for i, fid := range fids {
			if !found[i] {
				return fmt.Errorf("datastore: missing focus %d", fid)
			}
		}
		// PK is (focus_id, resource_id): each focus's links arrive
		// contiguously, so stage them in one arena (same trick as the
		// result_has_focus scan).
		arena := make([]int64, 0, fhrTab.Len())
		starts := make([]int, len(fids))
		counts := make([]int, len(fids))
		stage := func(i int, rid int64) {
			if counts[i] == 0 {
				starts[i] = len(arena)
			}
			arena = append(arena, rid)
			counts[i]++
		}
		if err := m.s.scanLinks(ctx, "focus_has_resource", fpos, stage); err != nil {
			return err
		}
		for i := range members {
			if counts[i] > 0 {
				members[i] = arena[starts[i] : starts[i]+counts[i] : starts[i]+counts[i]]
			}
		}
	} else {
		if err := shardRange(len(fids), m.workers, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				row, ok := fTab.Get(fids[i])
				if !ok {
					return fmt.Errorf("datastore: missing focus %d", fids[i])
				}
				ft, err := core.ParseFocusType(row[1].Text())
				if err != nil {
					return err
				}
				types[i] = ft
				if err := fhrTab.PKScan([]reldb.Value{reldb.Int(fids[i])},
					func(_ int64, link reldb.Row) bool {
						members[i] = append(members[i], link[1].Int64())
						return true
					}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
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

// MaterializeResults materializes the given performance-result IDs in
// one batch, preserving input order, with default options. Returned
// results may share Contexts data between results referencing the same
// focus; callers must treat them as read-only.
func (s *Store) MaterializeResults(ids []int64) ([]*core.PerformanceResult, error) {
	return s.MaterializeResultsOptsCtx(context.Background(), ids, MaterializeOptions{})
}

// MaterializeResultsCtx is MaterializeResults under a context: when a
// trace rides ctx, the materializer records its phase spans
// (materialize.fetch, .focus, .assemble) in the request's span tree.
func (s *Store) MaterializeResultsCtx(ctx context.Context, ids []int64) ([]*core.PerformanceResult, error) {
	return s.MaterializeResultsOptsCtx(ctx, ids, MaterializeOptions{})
}

// MaterializeResultsOpts is MaterializeResults with explicit options.
func (s *Store) MaterializeResultsOpts(ids []int64, opt MaterializeOptions) ([]*core.PerformanceResult, error) {
	return s.MaterializeResultsOptsCtx(context.Background(), ids, opt)
}

// MaterializeResultsOptsCtx is MaterializeResultsCtx with explicit
// options.
func (s *Store) MaterializeResultsOptsCtx(ctx context.Context, ids []int64, opt MaterializeOptions) ([]*core.PerformanceResult, error) {
	m, err := s.newMaterializer(ctx, opt)
	if err != nil {
		return nil, err
	}
	return m.run(ctx, ids)
}

// MaterializeStream materializes IDs in bounded chunks, invoking emit
// with each batch in input order, so memory stays bounded on
// full-corpus retrievals. The dictionary views and focus cache are
// shared across chunks. A non-nil error from emit aborts the stream.
func (s *Store) MaterializeStream(ids []int64, opt MaterializeOptions, emit func([]*core.PerformanceResult) error) error {
	return s.MaterializeStreamCtx(context.Background(), ids, opt, emit)
}

// MaterializeStreamCtx is MaterializeStream under a context; each chunk
// records its own phase spans.
func (s *Store) MaterializeStreamCtx(ctx context.Context, ids []int64, opt MaterializeOptions, emit func([]*core.PerformanceResult) error) error {
	m, err := s.newMaterializer(ctx, opt)
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
