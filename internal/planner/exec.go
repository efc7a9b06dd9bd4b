package planner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// planResults plans and executes one SELECT over the virtual
// performance_result table.
func (p *Planner) planResults(ctx context.Context, sel *sqldb.SelectStmt, prof *ExecProfile) (*sqldb.Result, *Plan, error) {
	cs := analyzeResultWhere(sel.Where)

	// Split pushed from residual conjuncts. Family specs are always
	// evaluated through the set layer — they are selection semantics, not
	// an optimization — while naive mode keeps dimension and numeric
	// predicates residual. Dimension and numeric pushdown is also
	// disabled whenever a residual conjunct could raise a data-dependent
	// evaluation error: pushing would shrink the row set the residual
	// runs over and could mask the error naive evaluation reports.
	fullPush := !p.Naive
	for _, c := range cs {
		if c.kind == kindResidual && !boolSafe(c.expr) {
			fullPush = false
			break
		}
	}
	var pushed []conjunct
	var residual []sqldb.Expr
	drop := map[sqldb.Expr]bool{}
	for _, c := range cs {
		if c.kind == kindResidual || (!fullPush && c.kind != kindFamily) {
			residual = append(residual, c.expr)
			continue
		}
		pushed = append(pushed, c)
		drop[c.expr] = true
	}
	if err := checkPseudo(sel, residual); err != nil {
		return nil, nil, err
	}

	f, err := p.buildResultFilter(ctx, pushed)
	if err != nil {
		return nil, nil, err
	}
	plan := &Plan{Table: "performance_result", Residual: len(residual) > 0, Profile: prof}
	plan.Strategy, plan.EstRows = p.resultStrategy(p.store.TableStatistics(), pushed, f.fams)
	prof.markPlanned()
	for _, c := range pushed {
		plan.Pushed = append(plan.Pushed, describeConjunct(c))
	}
	if sel.Where != nil {
		sel.Where = stripConjuncts(sel.Where, drop)
	}

	if specs, groupCols, ok := p.aggPushable(sel, residual); ok {
		res, err := p.execAggregate(ctx, sel, &f, specs, groupCols, plan)
		return res, plan, err
	}
	res, err := p.execRows(ctx, sel, &f, plan)
	return res, plan, err
}

// aggPushable decides whether the aggregation itself can run below
// materialization, and classifies the aggregate calls for the kernels:
// no residual predicates, every GROUP BY key a dimension column, every
// aggregate a non-DISTINCT COUNT/SUM/AVG/MIN/MAX over value, id, or *,
// and no other column referenced outside aggregate arguments. DISTINCT
// needs per-group seen sets, which only the SQL executor keeps. Queries
// that fail the test take the row path, whose executor reports the same
// errors naive execution would.
func (p *Planner) aggPushable(sel *sqldb.SelectStmt, residual []sqldb.Expr) ([]vecAggSpec, []string, bool) {
	if p.Naive || len(residual) > 0 || !sqldb.HasAggregates(sel) {
		return nil, nil, false
	}
	aggs, err := sqldb.SelectAggregates(sel)
	if err != nil {
		return nil, nil, false
	}
	groupSet := map[string]bool{}
	var groupCols []string
	for _, ge := range sel.GroupBy {
		cr, ok := ge.(*sqldb.ColumnRef)
		if !ok || resultDims[cr.Column].dict == "" {
			return nil, nil, false
		}
		if !groupSet[cr.Column] {
			groupSet[cr.Column] = true
			groupCols = append(groupCols, cr.Column)
		}
	}
	specs := make([]vecAggSpec, 0, len(aggs))
	for _, fe := range aggs {
		if fe.Distinct {
			return nil, nil, false
		}
		switch fe.Name {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
		default:
			return nil, nil, false
		}
		sp := vecAggSpec{fe: fe, fn: fe.Name, star: fe.Star}
		if !fe.Star {
			cr, ok := fe.Arg.(*sqldb.ColumnRef)
			if !ok || (cr.Column != "value" && cr.Column != "id") {
				return nil, nil, false
			}
			sp.idArg = cr.Column == "id"
		}
		specs = append(specs, sp)
	}
	// Any non-aggregate column reference must be a group key: the pushed
	// representative row carries only the group dimensions, where a naive
	// group representative carries its whole first row.
	ok := true
	check := func(e sqldb.Expr) {
		walkColumnRefs(e, false, func(cr *sqldb.ColumnRef) { ok = ok && groupSet[cr.Column] })
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, nil, false
		}
		check(item.Expr)
	}
	if sel.Having != nil {
		check(sel.Having)
	}
	for _, oi := range sel.OrderBy {
		check(oi.Expr)
	}
	if !ok {
		return nil, nil, false
	}
	return specs, groupCols, true
}

// execAggregate runs the scan with aggregation pushed below
// materialization: the kernels fold (id, dims, value) columns straight
// off the access path into per-group accumulators and no result row is
// ever built.
func (p *Planner) execAggregate(ctx context.Context, sel *sqldb.SelectStmt, f *resultFilter,
	specs []vecAggSpec, groupCols []string, plan *Plan) (*sqldb.Result, error) {
	plan.Aggregate = true

	// Packed key space: each key column sized by its dictionary's largest
	// ID, read before the scan opens. A row carrying a newer ID still
	// lands in its own group (aggSink.over), just not a packed one.
	proto := aggSink{specs: specs, dense: 1}
	dicts := make([]datastore.Dict, len(groupCols))
	for ki, col := range groupCols {
		dicts[ki] = p.store.Dict(resultDims[col].dict)
		maxID := dicts[ki].MaxID()
		proto.keyCols = append(proto.keyCols, resultDims[col].physCol)
		proto.caps = append(proto.caps, maxID+1)
		proto.mult = append(proto.mult, int64(proto.dense))
		if int64(proto.dense) <= int64(maxDenseGroups)/(maxID+1) {
			proto.dense *= int(maxID + 1)
		} else {
			proto.dense = 0 // too wide to pack; stays 0 for any further key
		}
	}
	// Keep the total accumulator footprint bounded; an unpacked key space
	// grows one shared set of accumulators on a single worker.
	workers := 1
	if proto.dense > 0 {
		workers = maxDenseGroups / proto.dense
	}
	merged, err := p.scanResults(ctx, f, plan, workers, func() blockSink {
		s := proto
		s.acc = newVecAccum(s.dense, specs)
		s.gbuf = make([]int32, 0, vecBatch)
		return &s
	})
	if err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	sink := merged.(*aggSink)
	acc := sink.acc

	// Groups in global first-appearance order; dictionary IDs resolve to
	// names only here.
	var gs []int32
	for g, rc := range acc.rowCount {
		if rc > 0 {
			gs = append(gs, int32(g))
			plan.ActualRows += rc
		}
	}
	sort.Slice(gs, func(a, b int) bool { return acc.firstOrd[gs[a]] < acc.firstOrd[gs[b]] })

	vcols := virtualColumns["performance_result"]
	colIdx := map[string]int{}
	for i, c := range vcols {
		colIdx[c] = i
	}
	pgs := make([]sqldb.PlannedGroup, 0, len(gs))
	for _, g := range gs {
		repr := make(reldb.Row, len(vcols))
		for i := range repr {
			repr[i] = reldb.Null()
		}
		key := sink.key(g)
		for ki, col := range groupCols {
			repr[colIdx[col]] = reldb.Str(dicts[ki].Name(key[ki]))
		}
		ga := make([]*sqldb.Aggregator, len(specs))
		for ai := range specs {
			ga[ai] = specs[ai].finish(acc, ai, g)
		}
		pgs = append(pgs, sqldb.PlannedGroup{Repr: repr, Aggs: ga})
	}
	plan.Profile.MergeNanos += time.Since(mergeStart).Nanoseconds()
	return sqldb.FinishGrouped(sel, vcols, pgs)
}

// execRows streams the rows that survive the pushed predicates, in row-ID
// order, to the SQL executor as virtual (id, execution, metric, value,
// units, tool) rows for residual filtering, projection, grouping, and
// ordering: the kernels run block by block on one worker, or the naive
// scan walks its Lookup.
func (p *Planner) execRows(ctx context.Context, sel *sqldb.SelectStmt, f *resultFilter, plan *Plan) (*sqldb.Result, error) {
	vr := p.resultRow()
	var n int64
	res, err := sqldb.Execute(ctx, sel, func(string) ([]string, func(func(reldb.Row) error) error, bool) {
		return virtualColumns["performance_result"], func(yield func(reldb.Row) error) error {
			counted := func(row reldb.Row) error {
				n++
				return yield(row)
			}
			if p.Naive {
				return p.naiveScan(ctx, f, plan.Profile, vr, counted)
			}
			_, err := p.scanResults(ctx, f, plan, 1, func() blockSink { return &rowSink{row: vr, yield: counted} })
			return err
		}, true
	})
	plan.ActualRows, plan.Materialized = n, n
	return res, err
}

// resultRow returns a builder of performance_result's virtual rows from
// a physical row's id, dimension IDs and value, names resolved through
// dictionary views taken once per query, into one reused row.
func (p *Planner) resultRow() func(id, e, m, t, u int64, v float64) reldb.Row {
	execs, metrics := p.store.Dict("execution"), p.store.Dict("metric")
	units, tools := p.store.Dict("units"), p.store.Dict("performance_tool")
	row := make(reldb.Row, len(virtualColumns["performance_result"]))
	return func(id, e, m, t, u int64, v float64) reldb.Row {
		row[0], row[1], row[2] = reldb.Int(id), reldb.Str(execs.Name(e)), reldb.Str(metrics.Name(m))
		row[3], row[4], row[5] = reldb.Float(v), reldb.Str(units.Name(u)), reldb.Str(tools.Name(t))
		return row
	}
}

// naiveScan is the reference scan behind Planner.Naive: a key-order
// Lookup of every row, its columns read at each position, with family
// specs (the only conjuncts naive mode pushes) checked per row against
// the resolved ID set, and ctx every 1024 rows. It deliberately shares
// nothing with the block source or the kernels it is the oracle for.
func (p *Planner) naiveScan(ctx context.Context, f *resultFilter, prof *ExecProfile,
	vr func(id, e, m, t, u int64, v float64) reldb.Row, yield func(reldb.Row) error) error {
	tab, ok := p.store.Table("performance_result")
	if !ok {
		return fmt.Errorf("datastore: no performance_result table: %w", datastore.ErrNotFound)
	}
	var member map[int64]struct{}
	if len(f.fams) > 0 {
		member = make(map[int64]struct{}, len(f.famIDs))
		for _, id := range f.famIDs {
			member[id] = struct{}{}
		}
	}
	var stop error
	err := tab.Lookup("", nil, func(b *reldb.ColumnBlock, i int) bool {
		if prof.RowsScanned%1024 == 0 {
			if err := ctx.Err(); err != nil {
				stop = fmt.Errorf("planner: naive scan performance_result: %w", err)
				return false
			}
		}
		prof.RowsScanned++
		id := b.IDs().At(i)
		if member != nil {
			if _, ok := member[id]; !ok {
				return true
			}
		}
		stop = yield(vr(id, b.Ints(1).At(i), b.Ints(2).At(i), b.Ints(3).At(i), b.Ints(4).At(i), b.Float64s(5)[i]))
		return stop == nil
	})
	if stop != nil {
		return stop
	}
	return err
}

// idBounds derives an inclusive primary-key range from pushed id
// predicates; it bounds both zone-map pruning and the key-order walk. A
// literal beyond the int64 range clamps to its end before it converts,
// and the ±1 of a strict comparison stops there, so such a bound never
// wraps into a wrong range.
func idBounds(nums []numPred) (lo, hi int64) {
	lo, hi = 0, math.MaxInt64
	key := func(f float64) int64 {
		switch {
		case f >= math.MaxInt64: // float64(MaxInt64) is 2^63, one above it
			return math.MaxInt64
		case f <= math.MinInt64:
			return math.MinInt64
		}
		return int64(f)
	}
	for _, np := range nums {
		if np.col != "id" {
			continue
		}
		switch np.op {
		case "=":
			lo, hi = max(lo, key(math.Ceil(np.f))), min(hi, key(math.Floor(np.f)))
		case ">":
			lo = max(lo, min(key(math.Floor(np.f)), math.MaxInt64-1)+1)
		case ">=":
			lo = max(lo, key(math.Ceil(np.f)))
		case "<":
			hi = min(hi, max(key(math.Ceil(np.f)), math.MinInt64+1)-1)
		case "<=":
			hi = min(hi, key(math.Floor(np.f)))
		}
	}
	return lo, hi
}

// --- dimension virtual tables ---

// dimSpec describes one dimension virtual table: its physical table,
// virtual columns, row builder, and the equality columns an index can
// serve.
type dimSpec struct {
	phys string
	// index returns the index and prefix serving col = lit, if any.
	index func(p *Planner, col string, lit string) (string, []reldb.Value, bool)
	// row builds the virtual row for one physical row into out; dicts
	// holds a view of each dictionary the field below names, in that
	// order.
	row func(dicts []datastore.Dict, row, out reldb.Row)
	// dicts names the dictionaries the row builder needs.
	dicts []string
}

var dimSpecs = map[string]dimSpec{
	"execution": {
		phys:  "execution",
		dicts: []string{"application"},
		index: func(p *Planner, col, lit string) (string, []reldb.Value, bool) {
			if col == "name" {
				return "execution_name", []reldb.Value{reldb.Str(lit)}, true
			}
			return "", nil, false
		},
		row: func(dicts []datastore.Dict, row, out reldb.Row) {
			out[0], out[1] = row[1], reldb.Str(dicts[0].Name(row[2].Int64()))
		},
	},
	"resource": {
		phys:  "resource_item",
		dicts: []string{"focus_framework", "execution"},
		index: func(p *Planner, col, lit string) (string, []reldb.Value, bool) {
			switch col {
			case "name":
				return "resource_item_name", []reldb.Value{reldb.Str(lit)}, true
			case "base_name":
				return "resource_item_base", []reldb.Value{reldb.Str(lit)}, true
			case "execution":
				if id, ok := p.store.LookupDict("execution", lit); ok {
					return "resource_item_exec", []reldb.Value{reldb.Int(id)}, true
				}
			}
			return "", nil, false
		},
		row: func(dicts []datastore.Dict, row, out reldb.Row) {
			out[0], out[1], out[2], out[3] = row[1], row[2], reldb.Str(dicts[0].Name(row[4].Int64())), reldb.Null()
			if !row[5].IsNull() {
				out[3] = reldb.Str(dicts[1].Name(row[5].Int64()))
			}
		},
	},
	"attribute": {
		phys:  "resource_attribute",
		dicts: []string{"resource_item"},
		index: func(p *Planner, col, lit string) (string, []reldb.Value, bool) {
			if col == "name" {
				return "resource_attribute_name", []reldb.Value{reldb.Str(lit)}, true
			}
			return "", nil, false
		},
		row: func(dicts []datastore.Dict, row, out reldb.Row) {
			out[0], out[1], out[2] = reldb.Str(dicts[0].Name(row[1].Int64())), row[2], row[3]
		},
	},
}

// planDimension plans and executes a SELECT over a dimension virtual
// table (execution, resource, attribute): at most one indexable equality
// is pushed down; everything else stays residual over the streamed
// virtual rows.
func (p *Planner) planDimension(ctx context.Context, sel *sqldb.SelectStmt, prof *ExecProfile) (*sqldb.Result, *Plan, error) {
	spec := dimSpecs[sel.From.Table]
	vcols := virtualColumns[sel.From.Table]
	tab, ok := p.store.Table(spec.phys)
	if !ok {
		return nil, nil, fmt.Errorf("datastore: no %s table: %w", spec.phys, datastore.ErrNotFound)
	}
	stats := p.store.TableStatistics()
	total := stats.TableStat(spec.phys).Rows

	plan := &Plan{Table: sel.From.Table, Strategy: StrategyFullScan, EstRows: total, Profile: prof}
	var idxName string
	var idxPrefix []reldb.Value
	// Index pushdown shrinks the row set the WHERE re-runs over; see
	// boolSafe — every conjunct must be unable to error.
	var conjs []sqldb.Expr
	if !p.Naive && sel.Where != nil {
		conjs = splitConjuncts(sel.Where, nil)
	}
	if !slices.ContainsFunc(conjs, func(e sqldb.Expr) bool { return !boolSafe(e) }) {
		for _, e := range conjs {
			col, op, lit, ok := colOpLit(e)
			if !ok || op != "=" || lit.Kind() != reldb.KindString {
				continue
			}
			if name, prefix, ok := spec.index(p, col, lit.Text()); ok {
				idxName, idxPrefix = name, prefix
				plan.Strategy = StrategyIndex
				if sel.From.Table == "attribute" {
					plan.Strategy = StrategyAttrIndex
				}
				plan.Pushed = append(plan.Pushed, fmt.Sprintf("%s=%q", col, lit.Text()))
				plan.EstRows = 1
				if col != "name" || sel.From.Table == "attribute" {
					d := stats.TableStat(spec.phys).DistinctKeys
					if d > 0 {
						plan.EstRows = total / d
					}
				}
				// The pushed conjunct stays in WHERE: index prefix scans are
				// exact, but re-checking one equality per row is cheap and
				// keeps the residual rewrite trivial.
				break
			}
		}
	}

	prof.markPlanned()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("planner: scan %s: %w", sel.From.Table, err)
	}
	dicts := make([]datastore.Dict, len(spec.dicts))
	for i, d := range spec.dicts {
		dicts[i] = p.store.Dict(d)
	}
	// Each physical row is built into one reused slab and each virtual
	// row into one reused row. Rows reach the executor in row-ID order:
	// a full scan reads the block source, an index scan gathers the
	// index's matches sorted by row ID.
	phys := make([]reldb.Value, len(tab.Schema().Columns))
	virt := make(reldb.Row, len(vcols))
	scan := func(yield func(reldb.Row) error) error {
		each := func(b *reldb.ColumnBlock) error {
			for i := range b.Len() {
				slab := phys
				spec.row(dicts, b.Row(i, &slab), virt)
				prof.RowsScanned++
				if err := yield(virt); err != nil {
					return err
				}
			}
			return nil
		}
		if idxName == "" {
			bs, err := p.store.Blocks(spec.phys, math.MinInt64, math.MaxInt64)
			if err != nil {
				return err
			}
			return bs.Each(each)
		}
		var ids []int64
		if err := tab.Lookup(idxName, idxPrefix, func(b *reldb.ColumnBlock, i int) bool {
			ids = append(ids, b.IDs().At(i))
			return true
		}); err != nil {
			return err
		}
		slices.Sort(ids)
		return tab.Gather(ids, each)
	}
	res, err := sqldb.Execute(ctx, sel, func(string) ([]string, func(func(reldb.Row) error) error, bool) {
		return vcols, scan, true
	})
	if err != nil {
		return nil, nil, err
	}
	plan.ActualRows, plan.Materialized = prof.RowsScanned, prof.RowsScanned
	plan.Residual = sel.Where != nil
	return res, plan, nil
}
