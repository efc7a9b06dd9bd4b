// Package planner is the cost-based query planner between the SQL
// frontend (internal/sqldb) and the datastore. It exposes the store as a
// small virtual catalog — execution, resource, attribute, and
// performance_result tables keyed by names instead of internal IDs —
// and, per predicate, chooses between attribute-index scans, the cached
// ID-set intersection of the pr-filter engine, zone-map-pruned columnar
// segment scans, and full scans, using the table statistics the store
// collects at batch-commit time. Predicates and aggregations are pushed
// below materialization, so SELECT avg(value) ... GROUP BY metric never
// builds result rows.
//
// Queries the catalog cannot express (joins, physical columns such as
// execution_id, physical-only tables) run through the same sqldb executor
// over a source that scans the engine's physical tables (raw-sql in
// plans), so the SQL surface never shrinks. Either way it is read-only.
package planner

import (
	"context"
	"fmt"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/obs"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// Access-path strategies a plan can choose.
const (
	StrategyFullScan  = "full-scan"   // scan of every row in key order
	StrategyZoneMap   = "zone-map"    // columnar segment scan with zone-map pruning
	StrategyIndex     = "index"       // secondary-index prefix scan
	StrategyIDSet     = "idset-cache" // cached pr-filter ID-set intersection
	StrategyAttrIndex = "attr-index"  // attribute-index scan feeding the ID set
	StrategyRawSQL    = "raw-sql"     // scan + join over the physical tables
)

// Cost-model weights: relative cost of visiting one row on each access
// path (DESIGN.md §11). Point lookups pay a binary search per block,
// index scans a permutation walk plus row build, full scans a key-order
// walk building rows, and segment scans stream decoded columns.
const (
	costPointLookup = 4.0
	costIndexRow    = 2.0
	costScanRow     = 1.0
	costSegmentRow  = 0.25
)

// virtualColumns is the planner catalog: the virtual tables and their
// column order. performance_result additionally accepts the WHERE-only
// pseudo-columns "resource" (a resource name, descendants included) and
// "family" (a full pr-filter family spec).
var virtualColumns = map[string][]string{
	"execution":          {"name", "application"},
	"resource":           {"name", "base_name", "type", "execution"},
	"attribute":          {"resource", "name", "value"},
	"performance_result": {"id", "execution", "metric", "value", "units", "tool"},
}

// resultDims are performance_result's dimension columns: virtual column →
// physical row index and dictionary table.
var resultDims = map[string]struct {
	physCol int
	dict    string
}{
	"execution": {1, "execution"},
	"metric":    {2, "metric"},
	"tool":      {3, "performance_tool"},
	"units":     {4, "units"},
}

// Planner plans and executes SELECTs against a datastore.
type Planner struct {
	store *datastore.Store

	// Naive disables the cost-based machinery — no predicate or aggregate
	// pushdown, full-scan access, every WHERE conjunct re-evaluated per
	// materialized row. Family specs are still honored (they are
	// semantics, not optimization). It is the ablation baseline for
	// BENCH_sql.json and the oracle for FuzzSQLPlanner.
	Naive bool

	// Workers caps the scan fan-out over segment blocks; 0 means
	// GOMAXPROCS.
	Workers int

	// Cache, when set, serves repeated queries from a generation-keyed
	// result cache (see ResultCache). Naive mode bypasses it so the
	// differential oracle always re-executes.
	Cache *ResultCache
}

// New builds a planner over a store.
func New(st *datastore.Store) *Planner { return &Planner{store: st} }

// Plan describes how one query ran: the chosen strategy with estimated
// (from the store's live statistics) versus actual scan-output cardinality,
// the pushed-down predicates, and how many virtual rows were built.
type Plan struct {
	Table        string
	Strategy     string
	EstRows      int64
	ActualRows   int64
	Pushed       []string
	Residual     bool
	Aggregate    bool
	Materialized int64
	Alternatives []string // "strategy=cost" entries the cost model compared
	Workers      int      // fan-out actually used over segment blocks (0: none read)
	CacheHit     bool     // result served from the plan-keyed result cache

	// Profile records the execution's per-operator actuals (see
	// profile.go). A cache hit carries the profile of the execution that
	// filled the entry.
	Profile *ExecProfile
}

// Query parses, plans, and executes one SELECT. With a Cache attached,
// a repeated query under an unchanged store generation returns the
// cached result; any mutation bumps the generation and implicitly
// invalidates every cached entry. When the context carries a trace, the
// whole lookup runs under a planner.query span tagged cache=hit|miss,
// so cached requests still show up in /v1/debug/traces instead of
// vanishing at the short-circuit.
func (p *Planner) Query(ctx context.Context, sqlText string) (*sqldb.Result, *Plan, error) {
	ctx, span := obs.StartSpan(ctx, "planner.query")
	defer span.End()
	var gen uint64
	cached := p.Cache != nil && !p.Naive
	if cached {
		gen = p.store.Generation()
		if e, ok := p.Cache.Get(gen, sqlText); ok {
			e.plan.CacheHit = true // e is a copy; the cached plan stays unmarked
			span.Annotate("cache", "hit")
			span.Annotate("strategy", e.plan.Strategy)
			return e.res, &e.plan, nil
		}
		span.Annotate("cache", "miss")
	}
	res, plan, err := p.execute(ctx, sqlText)
	if cached && err == nil {
		p.Cache.Put(gen, sqlText, cachedResult{res, *plan}, resultBytes(res))
	}
	if err == nil {
		span.Annotate("strategy", plan.Strategy)
	}
	return res, plan, err
}

// execute parses, plans, and runs one SELECT, bypassing the cache. It is
// the one place in the repository that runs SQL text.
func (p *Planner) execute(ctx context.Context, sqlText string) (*sqldb.Result, *Plan, error) {
	prof := newExecProfile()
	sel, err := sqldb.Parse(sqlText)
	if err != nil {
		return nil, nil, fmt.Errorf("planner: %v: %w", err, datastore.ErrBadSpec)
	}
	var res *sqldb.Result
	var plan *Plan
	switch {
	case p.virtualizable(sel) && sel.From.Table == "performance_result":
		res, plan, err = p.planResults(ctx, sel, prof)
	case p.virtualizable(sel):
		res, plan, err = p.planDimension(ctx, sel, prof)
	default:
		res, plan, err = p.rawQuery(sel, prof)
	}
	if err == nil {
		prof.finish(len(res.Rows))
	}
	return res, plan, err
}

// virtualSource is the row source of a virtualizable statement: its one
// table, materialized by the chosen access path.
func virtualSource(columns []string, rows []reldb.Row) sqldb.Source {
	return func(string) ([]string, []reldb.Row, bool) { return columns, rows, true }
}

// rawQuery runs a statement the virtual catalog cannot express over the
// engine's physical tables: every table the statement names is scanned
// whole and the executor filters and joins. It only reads.
func (p *Planner) rawQuery(sel *sqldb.SelectStmt, prof *ExecProfile) (*sqldb.Result, *Plan, error) {
	prof.markPlanned()
	var scanned int64
	res, err := sqldb.Execute(sel, func(name string) ([]string, []reldb.Row, bool) {
		tab, ok := p.store.Table(name)
		if !ok {
			return nil, nil, false
		}
		schema := tab.Schema()
		cols := make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = c.Name
		}
		var rows []reldb.Row
		tab.Scan(func(_ int64, row reldb.Row) bool {
			rows = append(rows, row)
			return true
		})
		scanned += int64(len(rows))
		return cols, rows, true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("planner: %v: %w", err, datastore.ErrBadSpec)
	}
	prof.RowsScanned = scanned
	return res, &Plan{
		Table:        sel.From.Table,
		Strategy:     StrategyRawSQL,
		EstRows:      int64(len(res.Rows)),
		ActualRows:   int64(len(res.Rows)),
		Materialized: scanned,
		Profile:      prof,
	}, nil
}

// virtualizable reports whether the statement can run against the
// virtual catalog: a single known virtual table and every column
// reference resolvable there (pseudo-columns count; ORDER BY may also
// name select-list aliases). Anything else goes to the raw executor.
func (p *Planner) virtualizable(sel *sqldb.SelectStmt) bool {
	cols, ok := virtualColumns[sel.From.Table]
	if !ok || len(sel.Joins) > 0 {
		return false
	}
	allowed := map[string]bool{}
	for _, c := range cols {
		allowed[c] = true
	}
	if sel.From.Table == "performance_result" {
		allowed["family"] = true
		allowed["resource"] = true
	}
	alias := map[string]bool{}
	for _, item := range sel.Items {
		if item.Alias != "" {
			alias[item.Alias] = true
		}
	}
	from := sel.From.Table
	if sel.From.Alias != "" {
		from = sel.From.Alias
	}
	resolves := func(e sqldb.Expr, extra map[string]bool) bool {
		ok := true
		walkColumnRefs(e, func(cr *sqldb.ColumnRef) {
			if cr.Table != "" && cr.Table != from {
				ok = false
			}
			if !allowed[cr.Column] && !extra[cr.Column] {
				ok = false
			}
		})
		return ok
	}
	for _, item := range sel.Items {
		if item.Star {
			if item.Table != "" && item.Table != from {
				return false
			}
			continue
		}
		if !resolves(item.Expr, nil) {
			return false
		}
	}
	if sel.Where != nil && !resolves(sel.Where, nil) {
		return false
	}
	for _, ge := range sel.GroupBy {
		if !resolves(ge, nil) {
			return false
		}
	}
	if sel.Having != nil && !resolves(sel.Having, nil) {
		return false
	}
	for _, oi := range sel.OrderBy {
		if !resolves(oi.Expr, alias) {
			return false
		}
	}
	return true
}

// walkColumnRefs visits every column reference in an expression tree,
// including aggregate arguments.
func walkColumnRefs(e sqldb.Expr, fn func(*sqldb.ColumnRef)) {
	switch x := e.(type) {
	case *sqldb.ColumnRef:
		fn(x)
	case *sqldb.BinaryExpr:
		walkColumnRefs(x.L, fn)
		walkColumnRefs(x.R, fn)
	case *sqldb.UnaryExpr:
		walkColumnRefs(x.X, fn)
	case *sqldb.InExpr:
		walkColumnRefs(x.X, fn)
		for _, i := range x.List {
			walkColumnRefs(i, fn)
		}
	case *sqldb.IsNullExpr:
		walkColumnRefs(x.X, fn)
	case *sqldb.BetweenExpr:
		walkColumnRefs(x.X, fn)
		walkColumnRefs(x.Lo, fn)
		walkColumnRefs(x.Hi, fn)
	case *sqldb.FuncExpr:
		if x.Arg != nil {
			walkColumnRefs(x.Arg, fn)
		}
	}
}

// --- WHERE analysis ---

// conjunct kinds, from the planner's point of view.
const (
	kindResidual = iota // only evaluable per materialized row
	kindFamily          // family/resource pseudo-column equality → ID set
	kindDim             // dimension name equality → ID filter
	kindNum             // value/id comparison → scalar filter
)

// numPred is a pushable numeric comparison on value or id.
type numPred struct {
	col string // "value" or "id"
	op  string
	f   float64
}

func (np numPred) ok(v float64) bool {
	switch np.op {
	case "=":
		return v == np.f
	case "!=":
		return v != np.f
	case "<":
		return v < np.f
	case "<=":
		return v <= np.f
	case ">":
		return v > np.f
	case ">=":
		return v >= np.f
	}
	return false
}

// conjunct is one AND-leaf of the WHERE clause with its classification.
type conjunct struct {
	expr sqldb.Expr
	kind int

	famSpec string // kindFamily
	dimCol  string // kindDim: virtual column
	dimVal  string // kindDim: required name
	num     numPred
}

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e sqldb.Expr, out []sqldb.Expr) []sqldb.Expr {
	if be, ok := e.(*sqldb.BinaryExpr); ok && be.Op == "AND" {
		out = splitConjuncts(be.L, out)
		return splitConjuncts(be.R, out)
	}
	return append(out, e)
}

// colOpLit decomposes a comparison between a column and a literal,
// flipping the operator when the literal is on the left.
func colOpLit(e sqldb.Expr) (col, op string, lit reldb.Value, ok bool) {
	be, isBin := e.(*sqldb.BinaryExpr)
	if !isBin {
		return "", "", reldb.Null(), false
	}
	switch be.Op {
	case "=", "!=", "<", "<=", ">", ">=":
	default:
		return "", "", reldb.Null(), false
	}
	if cr, isCol := be.L.(*sqldb.ColumnRef); isCol {
		if l, isLit := be.R.(*sqldb.Literal); isLit {
			return cr.Column, be.Op, l.Value, true
		}
	}
	if cr, isCol := be.R.(*sqldb.ColumnRef); isCol {
		if l, isLit := be.L.(*sqldb.Literal); isLit {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
			return cr.Column, flip[be.Op], l.Value, true
		}
	}
	return "", "", reldb.Null(), false
}

// analyzeResultWhere classifies each WHERE conjunct of a
// performance_result query.
func analyzeResultWhere(where sqldb.Expr) []conjunct {
	if where == nil {
		return nil
	}
	var out []conjunct
	for _, e := range splitConjuncts(where, nil) {
		c := conjunct{expr: e, kind: kindResidual}
		if col, op, lit, ok := colOpLit(e); ok {
			switch {
			case col == "family" && op == "=" && lit.Kind() == reldb.KindString:
				c.kind, c.famSpec = kindFamily, lit.Text()
			case col == "resource" && op == "=" && lit.Kind() == reldb.KindString:
				c.kind, c.famSpec = kindFamily, "name="+lit.Text()
			case resultDims[col].dict != "" && op == "=" && lit.Kind() == reldb.KindString:
				c.kind, c.dimCol, c.dimVal = kindDim, col, lit.Text()
			case (col == "value" || col == "id") &&
				(lit.Kind() == reldb.KindInt || lit.Kind() == reldb.KindFloat):
				c.kind = kindNum
				c.num = numPred{col: col, op: op, f: lit.Float64()}
			}
		}
		out = append(out, c)
	}
	return out
}

// checkPseudo rejects family/resource pseudo-column references anywhere
// they cannot be answered: outside the WHERE clause, or inside WHERE
// conjuncts that are not simple AND'd equalities.
func checkPseudo(sel *sqldb.SelectStmt, residual []sqldb.Expr) error {
	var bad string
	check := func(e sqldb.Expr) {
		walkColumnRefs(e, func(cr *sqldb.ColumnRef) {
			if cr.Column == "family" || cr.Column == "resource" {
				bad = cr.Column
			}
		})
	}
	for _, item := range sel.Items {
		if !item.Star {
			check(item.Expr)
		}
	}
	for _, ge := range sel.GroupBy {
		check(ge)
	}
	if sel.Having != nil {
		check(sel.Having)
	}
	for _, oi := range sel.OrderBy {
		check(oi.Expr)
	}
	for _, e := range residual {
		check(e)
	}
	if bad != "" {
		return fmt.Errorf("planner: pseudo-column %q is only usable as an AND'd equality in WHERE: %w",
			bad, datastore.ErrBadSpec)
	}
	return nil
}

// scalarSafe reports whether an expression always evaluates without
// error: a resolved column reference or a literal.
func scalarSafe(e sqldb.Expr) bool {
	switch e.(type) {
	case *sqldb.ColumnRef, *sqldb.Literal:
		return true
	}
	return false
}

// boolSafe reports whether a conjunct always evaluates, without error,
// to a boolean or NULL. Pushing predicates down changes which rows the
// residual WHERE is re-evaluated over; that is only sound when the
// residual cannot raise a data-dependent error (e.g. AND over a string)
// that naive evaluation over the larger row set would surface.
func boolSafe(e sqldb.Expr) bool {
	switch x := e.(type) {
	case *sqldb.BinaryExpr:
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			return scalarSafe(x.L) && scalarSafe(x.R)
		}
	case *sqldb.IsNullExpr:
		return scalarSafe(x.X)
	case *sqldb.InExpr:
		if !scalarSafe(x.X) {
			return false
		}
		for _, item := range x.List {
			if !scalarSafe(item) {
				return false
			}
		}
		return true
	case *sqldb.BetweenExpr:
		return scalarSafe(x.X) && scalarSafe(x.Lo) && scalarSafe(x.Hi)
	}
	return false
}

// stripConjuncts rebuilds a WHERE tree with the dropped conjuncts
// replaced by TRUE, so residual re-evaluation never sees pushed-down
// predicates (or pseudo-columns absent from the virtual row).
func stripConjuncts(e sqldb.Expr, drop map[sqldb.Expr]bool) sqldb.Expr {
	if drop[e] {
		return &sqldb.Literal{Value: reldb.Bool(true)}
	}
	if be, ok := e.(*sqldb.BinaryExpr); ok && be.Op == "AND" {
		return &sqldb.BinaryExpr{Op: "AND", L: stripConjuncts(be.L, drop), R: stripConjuncts(be.R, drop)}
	}
	return e
}

// --- family evaluation and estimation ---

// familiesStrategy names the access path family specs use: attr-index
// when any spec carries attribute predicates (those walk the
// resource_attribute (name, value) index), idset-cache otherwise.
func familiesStrategy(fams []core.ResourceFilter) string {
	for _, rf := range fams {
		if len(rf.Attrs) > 0 {
			return StrategyAttrIndex
		}
	}
	return StrategyIDSet
}

// estimateFamilies estimates the result rows surviving family specs.
// Attribute predicates use the per-attribute statistics (rows per
// distinct value over the resource population); name selections assume a
// small subtree; base/type selections a broad one. The estimate only has
// to rank access paths, not be exact.
func estimateFamilies(stats datastore.TableStatistics, fams []core.ResourceFilter) int64 {
	total := stats.TableStat("performance_result").Rows
	resources := stats.TableStat("resource_item").Rows
	est := float64(total)
	for _, rf := range fams {
		sel := 1.0
		switch {
		case len(rf.Attrs) > 0:
			for _, pred := range rf.Attrs {
				frac := 0.5
				if a, ok := stats.AttributeStat(pred.Attr); ok && a.Distinct > 0 && resources > 0 {
					frac = float64(a.Rows) / float64(a.Distinct) / float64(resources)
				}
				if frac > 1 {
					frac = 1
				}
				sel *= frac
			}
		case rf.Name != "":
			sel = 0.1
		default:
			sel = 0.25
		}
		if e := float64(total) * sel; e < est {
			est = e
		}
	}
	if est < 1 {
		est = 1
	}
	return int64(est)
}

// --- cost-based strategy choice for performance_result ---

// resultAccess is the planner's decision for one performance_result scan.
type resultAccess struct {
	strategy     string
	indexDim     string // kindDim column driving an index scan
	est          int64
	alternatives []string
}

// chooseResultAccess costs the applicable access paths and picks the
// cheapest. Family specs (families holds their parsed filters) force the
// set-based path (they are semantics); everything else competes on
// estimated rows visited times per-row cost.
func (p *Planner) chooseResultAccess(stats datastore.TableStatistics, cs []conjunct, families []core.ResourceFilter) resultAccess {
	total := stats.TableStat("performance_result").Rows
	segRows := stats.TableStat("performance_result").SegmentRows
	dims := map[string]string{}
	nums := 0
	for _, c := range cs {
		switch c.kind {
		case kindDim:
			dims[c.dimCol] = c.dimVal
		case kindNum:
			nums++
		}
	}

	// Scan-output estimate: whatever the access path, the pushed
	// predicates thin the stream.
	estOut := float64(total)
	if len(families) > 0 {
		estOut = float64(estimateFamilies(stats, families))
	}
	dimSel := func(col string) float64 {
		d := stats.TableStat(resultDims[col].dict).DistinctKeys
		if d <= 0 {
			return 1
		}
		return 1 / float64(d)
	}
	for col := range dims {
		estOut *= dimSel(col)
	}
	for i := 0; i < nums; i++ {
		estOut /= 3
	}
	if estOut < 1 {
		estOut = 1
	}
	out := resultAccess{est: int64(estOut)}

	if p.Naive {
		out.strategy = StrategyFullScan
		out.est = total
		return out
	}
	if len(families) > 0 {
		out.strategy = familiesStrategy(families)
		setSize := float64(estimateFamilies(stats, families))
		out.alternatives = append(out.alternatives,
			fmt.Sprintf("%s=%.0f", out.strategy, setSize*costPointLookup),
			fmt.Sprintf("%s=%.0f", StrategyFullScan, float64(total)*costScanRow))
		return out
	}

	type option struct {
		strategy string
		dim      string
		cost     float64
	}
	opts := []option{{strategy: StrategyFullScan, cost: float64(total) * costScanRow}}
	if segRows > 0 { // the statistics count scannable segments only
		tail := float64(total - segRows)
		if tail < 0 {
			tail = 0
		}
		opts = append(opts, option{
			strategy: StrategyZoneMap,
			cost:     float64(segRows)*costSegmentRow + tail*costScanRow,
		})
	}
	for _, dim := range []string{"execution", "metric"} { // the indexed dims
		if _, ok := dims[dim]; !ok {
			continue
		}
		opts = append(opts, option{
			strategy: StrategyIndex,
			dim:      dim,
			cost:     float64(total) * dimSel(dim) * costIndexRow,
		})
	}
	best := opts[0]
	for _, o := range opts[1:] {
		if o.cost < best.cost {
			best = o
		}
	}
	out.strategy, out.indexDim = best.strategy, best.dim
	for _, o := range opts {
		name := o.strategy
		if o.dim != "" {
			name += "(" + o.dim + ")"
		}
		out.alternatives = append(out.alternatives, fmt.Sprintf("%s=%.0f", name, o.cost))
	}
	return out
}

// describeConjunct renders a pushed conjunct for plan output.
func describeConjunct(c conjunct) string {
	switch c.kind {
	case kindFamily:
		return fmt.Sprintf("family=%q", c.famSpec)
	case kindDim:
		return fmt.Sprintf("%s=%q", c.dimCol, c.dimVal)
	case kindNum:
		return fmt.Sprintf("%s%s%g", c.num.col, c.num.op, c.num.f)
	}
	return ""
}
