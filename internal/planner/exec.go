package planner

import (
	"context"
	"fmt"
	"math"
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
	stats := p.store.TableStatistics()
	access := p.chooseResultAccess(stats, pushed, f.fams)
	plan := &Plan{
		Table:        "performance_result",
		Strategy:     access.strategy,
		EstRows:      access.est,
		Residual:     len(residual) > 0,
		Alternatives: access.alternatives,
		Profile:      prof,
	}
	prof.markPlanned()
	for _, c := range pushed {
		plan.Pushed = append(plan.Pushed, describeConjunct(c))
	}
	if sel.Where != nil {
		sel.Where = stripConjuncts(sel.Where, drop)
	}

	if specs, groupCols, ok := p.aggPushable(sel, residual); ok {
		res, err := p.execAggregate(ctx, sel, access, &f, specs, groupCols, plan)
		return res, plan, err
	}
	res, err := p.execRows(ctx, sel, access, &f, plan)
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
	check := func(e sqldb.Expr) { walkNonAggRefs(e, func(cr *sqldb.ColumnRef) { ok = ok && groupSet[cr.Column] }) }
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

// walkNonAggRefs visits column references outside aggregate arguments.
func walkNonAggRefs(e sqldb.Expr, fn func(*sqldb.ColumnRef)) {
	switch x := e.(type) {
	case *sqldb.FuncExpr: // aggregate argument: not a per-row reference
	case *sqldb.ColumnRef:
		fn(x)
	case *sqldb.BinaryExpr:
		walkNonAggRefs(x.L, fn)
		walkNonAggRefs(x.R, fn)
	case *sqldb.UnaryExpr:
		walkNonAggRefs(x.X, fn)
	case *sqldb.InExpr:
		walkNonAggRefs(x.X, fn)
		for _, i := range x.List {
			walkNonAggRefs(i, fn)
		}
	case *sqldb.IsNullExpr:
		walkNonAggRefs(x.X, fn)
	case *sqldb.BetweenExpr:
		walkNonAggRefs(x.X, fn)
		walkNonAggRefs(x.Lo, fn)
		walkNonAggRefs(x.Hi, fn)
	}
}

// execAggregate runs the scan with aggregation pushed below
// materialization: the kernels fold (id, dims, value) columns straight
// off the access path into per-group accumulators and no result row is
// ever built.
func (p *Planner) execAggregate(ctx context.Context, sel *sqldb.SelectStmt, access resultAccess,
	f *resultFilter, specs []vecAggSpec, groupCols []string, plan *Plan) (*sqldb.Result, error) {
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
	merged, err := p.scanResults(ctx, access, f, plan, workers, func() blockSink {
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

// execRows materializes the surviving rows as virtual
// (id, execution, metric, value, units, tool) tuples and hands them to
// the SQL executor for residual filtering, projection, grouping, and
// ordering.
func (p *Planner) execRows(ctx context.Context, sel *sqldb.SelectStmt, access resultAccess,
	f *resultFilter, plan *Plan) (*sqldb.Result, error) {
	execs, metrics := p.store.Dict("execution"), p.store.Dict("metric")
	units, tools := p.store.Dict("units"), p.store.Dict("performance_tool")
	var tuples []resultTuple
	if p.Naive {
		var err error
		if tuples, err = p.naiveScan(f, plan.Profile); err != nil {
			return nil, err
		}
	} else {
		sink, err := p.scanResults(ctx, access, f, plan, math.MaxInt, func() blockSink { return &tupleSink{} })
		if err != nil {
			return nil, err
		}
		tuples = sink.(*tupleSink).out
	}
	mergeStart := time.Now()
	rows := make([]reldb.Row, len(tuples))
	for i, r := range tuples {
		rows[i] = reldb.Row{
			reldb.Int(r.id),
			reldb.Str(execs.Name(r.e)),
			reldb.Str(metrics.Name(r.m)),
			reldb.Float(r.v),
			reldb.Str(units.Name(r.u)),
			reldb.Str(tools.Name(r.t)),
		}
	}
	plan.Profile.MergeNanos += time.Since(mergeStart).Nanoseconds()
	plan.ActualRows = int64(len(rows))
	plan.Materialized = int64(len(rows))
	return sqldb.Execute(sel, virtualSource(virtualColumns["performance_result"], rows))
}

// naiveScan is the reference scan behind Planner.Naive: a key-order
// walk of every row, with family specs (the only conjuncts naive mode
// pushes) checked per row against the resolved ID set. It deliberately
// shares nothing with the block source or the kernels it is the oracle
// for.
func (p *Planner) naiveScan(f *resultFilter, prof *ExecProfile) ([]resultTuple, error) {
	tab, ok := p.store.Table("performance_result")
	if !ok {
		return nil, fmt.Errorf("datastore: no performance_result table: %w", datastore.ErrNotFound)
	}
	var member map[int64]struct{}
	if len(f.fams) > 0 {
		member = make(map[int64]struct{}, len(f.famIDs))
		for _, id := range f.famIDs {
			member[id] = struct{}{}
		}
	}
	var out []resultTuple
	tab.Scan(func(id int64, row reldb.Row) bool {
		prof.RowsScanned++
		if member != nil {
			if _, ok := member[id]; !ok {
				return true
			}
		}
		out = append(out, resultTuple{id, row[1].Int64(), row[2].Int64(), row[3].Int64(), row[4].Int64(), row[5].Float64()})
		return true
	})
	return out, nil
}

// idBounds derives an inclusive primary-key range from pushed id
// predicates; it bounds both zone-map pruning and the key-order walk.
func idBounds(nums []numPred) (lo, hi int64) {
	lo, hi = 0, math.MaxInt64
	for _, np := range nums {
		if np.col != "id" {
			continue
		}
		switch np.op {
		case "=":
			if b := int64(math.Ceil(np.f)); b > lo {
				lo = b
			}
			if b := int64(math.Floor(np.f)); b < hi {
				hi = b
			}
		case ">":
			if b := int64(math.Floor(np.f)) + 1; b > lo {
				lo = b
			}
		case ">=":
			if b := int64(math.Ceil(np.f)); b > lo {
				lo = b
			}
		case "<":
			if b := int64(math.Ceil(np.f)) - 1; b < hi {
				hi = b
			}
		case "<=":
			if b := int64(math.Floor(np.f)); b < hi {
				hi = b
			}
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
	// row builds the virtual row for one physical row; dicts holds a view
	// of each dictionary the field below names, in that order.
	row func(dicts []datastore.Dict, row reldb.Row) reldb.Row
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
		row: func(dicts []datastore.Dict, row reldb.Row) reldb.Row {
			return reldb.Row{row[1], reldb.Str(dicts[0].Name(row[2].Int64()))}
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
		row: func(dicts []datastore.Dict, row reldb.Row) reldb.Row {
			exec := reldb.Null()
			if !row[5].IsNull() {
				exec = reldb.Str(dicts[1].Name(row[5].Int64()))
			}
			return reldb.Row{row[1], row[2], reldb.Str(dicts[0].Name(row[4].Int64())), exec}
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
		row: func(dicts []datastore.Dict, row reldb.Row) reldb.Row {
			return reldb.Row{reldb.Str(dicts[0].Name(row[1].Int64())), row[2], row[3]}
		},
	},
}

// planDimension plans and executes a SELECT over a dimension virtual
// table (execution, resource, attribute): at most one indexable equality
// is pushed down; everything else stays residual over the materialized
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
	pushSafe := !p.Naive && sel.Where != nil
	if pushSafe {
		// Index pushdown shrinks the row set the WHERE re-runs over; see
		// boolSafe — every conjunct must be unable to error.
		for _, e := range splitConjuncts(sel.Where, nil) {
			if !boolSafe(e) {
				pushSafe = false
				break
			}
		}
	}
	if pushSafe {
		for _, e := range splitConjuncts(sel.Where, nil) {
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
	type pair struct {
		id  int64
		row reldb.Row
	}
	var pairs []pair
	if idxName != "" {
		if err := tab.IndexScan(idxName, idxPrefix, func(id int64, row reldb.Row) bool {
			pairs = append(pairs, pair{id, append(reldb.Row(nil), row...)})
			return true
		}); err != nil {
			return nil, nil, err
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].id < pairs[j].id })
	} else {
		tab.Scan(func(id int64, row reldb.Row) bool {
			pairs = append(pairs, pair{id, append(reldb.Row(nil), row...)})
			return true
		})
	}
	rows := make([]reldb.Row, 0, len(pairs))
	for _, pr := range pairs {
		rows = append(rows, spec.row(dicts, pr.row))
	}
	prof.RowsScanned = int64(len(pairs))
	plan.ActualRows = int64(len(rows))
	plan.Materialized = int64(len(rows))
	plan.Residual = sel.Where != nil
	res, err := sqldb.Execute(sel, virtualSource(vcols, rows))
	if err != nil {
		return nil, nil, err
	}
	return res, plan, nil
}
