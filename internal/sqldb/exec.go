package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"perftrack/internal/reldb"
)

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    []reldb.Row
}

// Source opens the tables a statement names: each table's column names
// in row order and a scan of its rows, or ok=false when there is no such
// table. Opening reads nothing; a scan calls yield with each row in the
// table's order and stops at, and returns, the first error yield returns
// or its own. The contract between the executor and every source:
//   - a yielded row lives only until yield returns — a scan may
//     overwrite it for the next row — so the executor copies what it
//     keeps, and never modifies a row;
//   - the executor scans every JOIN table (the build sides) whole before
//     it scans the FROM table (the probe side), each scan once;
//   - no scan starts inside another's yield, so a source may call back
//     under a lock (reldb's Gather and Lookup hold the engine read lock,
//     and a second read lock taken under it deadlocks behind a queued
//     writer).
//
// A source decides what a statement can see: the planner hands over the
// virtual catalog's access paths or the engine's physical tables.
type Source func(table string) (columns []string, scan func(yield func(reldb.Row) error) error, ok bool)

// Execute runs a parsed SELECT as one pull pipeline over the tables src
// opens. It reads and copies every JOIN's build side first, then streams
// the FROM table's rows through the joins (hash join on an
// equi-condition, nested loop otherwise), WHERE, and the group fold or
// the projection; HAVING, ORDER BY, DISTINCT and LIMIT/OFFSET then run
// over the finished groups or projected rows. Rows reach each clause in
// input order, and the first row to raise an error in any clause decides
// the error. The statement's WHERE is always applied here, so a source
// may hand over a superset of the matching rows. ctx is checked every
// 1024 rows scanned or pairs a join compares, and its error returned as
// is, as is a scan's own error.
func Execute(ctx context.Context, s *SelectStmt, src Source) (*Result, error) {
	var ticks int
	tick := func() error {
		if ticks++; ticks%1024 == 0 {
			return ctx.Err()
		}
		return nil
	}
	cols, scan, ok := src(s.From.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", s.From.Table)
	}
	f := frameFor(s.From.name(), cols)
	joins := make([]*join, len(s.Joins))
	for i, jc := range s.Joins {
		j, err := buildJoin(jc, f, src, tick)
		if err != nil {
			return nil, err
		}
		joins[i], f = j, j.frame
	}
	build := plain
	if HasAggregates(s) {
		build = grouped
	}
	fold, result, err := build(s, f)
	if err != nil {
		return nil, err
	}
	emit := fold
	if s.Where != nil {
		emit = func(row reldb.Row) error {
			ok, err := isTrue(s.Where, f, row)
			if ok {
				return fold(row)
			}
			return err
		}
	}
	for i := len(joins) - 1; i >= 0; i-- {
		j, next := joins[i], emit
		emit = func(row reldb.Row) error { return j.probe(row, tick, next) }
	}
	if err := scan(func(row reldb.Row) error {
		if err := tick(); err != nil {
			return err
		}
		return emit(row)
	}); err != nil {
		return nil, err
	}
	return result()
}

// frameFor binds column names under a table alias so qualified and
// unqualified references both resolve.
func frameFor(alias string, columns []string) *frame {
	f := &frame{cols: make([]colBinding, len(columns))}
	for i, c := range columns {
		f.cols[i] = colBinding{table: alias, column: c}
	}
	return f
}

// join is one JOIN clause with its build side read: the right table's
// rows, copied, hashed on the right half of an equi-condition when ON
// has one.
type join struct {
	on      Expr
	left    bool   // LEFT JOIN: an unmatched row is padded with NULLs
	lframe  *frame // the columns before this join
	frame   *frame // lframe's, then the right table's
	width   int    // the right table's column count
	leftKey Expr   // nil: nested loop over rows
	hash    map[string][]reldb.Row
	rows    []reldb.Row
	buf     reldb.Row // the joined row handed on; reused per pair
	key     []byte
}

// buildJoin opens a JOIN's table and reads it whole, ticking per row. A
// NULL key joins nothing, so such a row is left out of the hash.
func buildJoin(jc JoinClause, left *frame, src Source, tick func() error) (*join, error) {
	cols, scan, ok := src(jc.Table.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", jc.Table.Table)
	}
	right := frameFor(jc.Table.name(), cols)
	j := &join{
		on: jc.On, left: jc.Left, lframe: left, width: len(cols),
		frame: &frame{cols: append(append([]colBinding{}, left.cols...), right.cols...)},
	}
	leftKey, rightKey := splitEquiJoin(jc.On, left, right)
	if leftKey != nil && rightKey != nil {
		j.leftKey, j.hash = leftKey, map[string][]reldb.Row{}
	}
	err := scan(func(row reldb.Row) error {
		if err := tick(); err != nil {
			return err
		}
		if j.hash == nil {
			j.rows = append(j.rows, row.Clone())
			return nil
		}
		kv, err := eval(rightKey, right, row)
		if err != nil || kv.IsNull() {
			return err
		}
		j.key = joinKey(j.key[:0], kv)
		j.hash[string(j.key)] = append(j.hash[string(j.key)], row.Clone())
		return nil
	})
	return j, err
}

// probe joins one left row with the build side, handing every joined row
// ON accepts to next, in build order, and a NULL-padded one when a LEFT
// JOIN matched nothing. tick runs once per pair compared.
func (j *join) probe(lr reldb.Row, tick func() error, next func(reldb.Row) error) error {
	candidates := j.rows
	if j.hash != nil {
		kv, err := eval(j.leftKey, j.lframe, lr)
		if err != nil {
			return err
		}
		candidates = nil
		if !kv.IsNull() {
			j.key = joinKey(j.key[:0], kv)
			candidates = j.hash[string(j.key)]
		}
	}
	matched := false
	for _, rr := range candidates {
		if err := tick(); err != nil {
			return err
		}
		j.buf = append(append(j.buf[:0], lr...), rr...)
		ok, err := isTrue(j.on, j.frame, j.buf)
		if err != nil {
			return err
		}
		if ok {
			matched = true
			if err := next(j.buf); err != nil {
				return err
			}
		}
	}
	if j.left && !matched {
		j.buf = append(j.buf[:0], lr...)
		for range j.width {
			j.buf = append(j.buf, reldb.Null())
		}
		return next(j.buf)
	}
	return nil
}

// joinKey appends the hash-join bucket of a key value. Integers bucket
// as floats because the ON condition compares 1 and 1.0 equal; a bucket
// may therefore hold near misses, which re-evaluating ON per pair
// rejects.
func joinKey(dst []byte, v reldb.Value) []byte {
	if v.Kind() == reldb.KindInt {
		v = reldb.Float(float64(v.Int64()))
	}
	return reldb.EncodeKey(dst, v)
}

// isTrue evaluates a predicate; only an exact boolean true keeps a row.
func isTrue(pred Expr, f *frame, row reldb.Row) (bool, error) {
	v, err := eval(pred, f, row)
	if err != nil {
		return false, err
	}
	return v.Kind() == reldb.KindBool && v.Truth(), nil
}

// splitEquiJoin recognizes ON conditions of the form L = R (possibly under
// ANDs, in which case the first splittable equality is used) where L
// resolves entirely in the left frame and R in the right (or vice versa).
func splitEquiJoin(on Expr, left, right *frame) (Expr, Expr) {
	be, ok := on.(*BinaryExpr)
	if !ok {
		return nil, nil
	}
	if be.Op == "AND" {
		if l, r := splitEquiJoin(be.L, left, right); l != nil {
			return l, r
		}
		return splitEquiJoin(be.R, left, right)
	}
	if be.Op != "=" {
		return nil, nil
	}
	switch {
	case resolvesIn(be.L, left) && resolvesIn(be.R, right):
		return be.L, be.R
	case resolvesIn(be.R, left) && resolvesIn(be.L, right):
		return be.R, be.L
	}
	return nil, nil
}

// resolvesIn reports whether every column reference in e resolves in f.
func resolvesIn(e Expr, f *frame) bool {
	switch x := e.(type) {
	case *Literal:
		return true
	case *ColumnRef:
		_, err := f.resolve(x)
		return err == nil
	case *BinaryExpr:
		return resolvesIn(x.L, f) && resolvesIn(x.R, f)
	case *UnaryExpr:
		return resolvesIn(x.X, f)
	default:
		return false
	}
}

// sortable is one output row with its ORDER BY keys.
type sortable struct {
	out  reldb.Row
	keys reldb.Row
}

// finish is the tail every SELECT ends in: ORDER BY (stable, so ties
// keep input order), DISTINCT, LIMIT/OFFSET.
func finish(s *SelectStmt, cols []string, items []sortable) *Result {
	if len(s.OrderBy) > 0 {
		sort.SliceStable(items, func(i, j int) bool {
			return orderLess(items[i].keys, items[j].keys, s.OrderBy)
		})
	}
	rows := make([]reldb.Row, len(items))
	for i, it := range items {
		rows[i] = it.out
	}
	if s.Distinct {
		rows = distinctRows(rows)
	}
	return &Result{Columns: cols, Rows: applyLimit(rows, s.Limit, s.Offset)}
}

// plain is the fold of a SELECT without aggregates: each row's
// projection and ORDER BY keys, in new rows.
func plain(s *SelectStmt, f *frame) (func(reldb.Row) error, func() (*Result, error), error) {
	cols, project, err := makeProjection(s.Items, f)
	if err != nil {
		return nil, nil, err
	}
	var items []sortable
	fold := func(row reldb.Row) error {
		out, err := project(row)
		if err != nil {
			return err
		}
		var keys reldb.Row
		for _, oi := range s.OrderBy {
			k, err := evalOrderKey(oi.Expr, f, row, s.Items, cols, out)
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
		items = append(items, sortable{out: out, keys: keys})
		return nil
	}
	return fold, func() (*Result, error) { return finish(s, cols, items), nil }, nil
}

func orderLess(a, b reldb.Row, order []OrderItem) bool {
	for i := range order {
		c := reldb.Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// evalOrderKey evaluates an ORDER BY term. It first tries alias/output
// column references and 1-based positions, then falls back to evaluating
// the expression against the input row.
func evalOrderKey(e Expr, f *frame, row reldb.Row, items []SelectItem, cols []string, out reldb.Row) (reldb.Value, error) {
	if lit, ok := e.(*Literal); ok && lit.Value.Kind() == reldb.KindInt {
		pos := int(lit.Value.Int64())
		if pos < 1 || pos > len(out) {
			return reldb.Null(), fmt.Errorf("sql: ORDER BY position %d out of range", pos)
		}
		return out[pos-1], nil
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i, item := range items {
			if item.Alias == cr.Column {
				return out[i], nil
			}
		}
		// Match output column names for grouped results where the input
		// frame may not resolve the reference.
		if _, err := f.resolve(cr); err != nil {
			for i, c := range cols {
				if c == cr.Column {
					return out[i], nil
				}
			}
		}
	}
	return eval(e, f, row)
}

func distinctRows(rows []reldb.Row) []reldb.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := string(reldb.EncodeKey(nil, r...))
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func applyLimit(rows []reldb.Row, limit, offset int) []reldb.Row {
	if offset > 0 {
		if offset >= len(rows) {
			return nil
		}
		rows = rows[offset:]
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

// makeProjection compiles the select list into output column names and a
// per-row projection function.
func makeProjection(items []SelectItem, f *frame) ([]string, func(reldb.Row) (reldb.Row, error), error) {
	var cols []string
	type step struct {
		star      bool
		starTable string
		expr      Expr
	}
	var steps []step
	for _, item := range items {
		if item.Star {
			n := 0
			for _, b := range f.cols {
				if item.Table == "" || b.table == item.Table {
					cols = append(cols, b.column)
					n++
				}
			}
			if item.Table != "" && n == 0 {
				return nil, nil, fmt.Errorf("sql: no table %q in select star", item.Table)
			}
			steps = append(steps, step{star: true, starTable: item.Table})
			continue
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		cols = append(cols, name)
		steps = append(steps, step{expr: item.Expr})
	}
	project := func(row reldb.Row) (reldb.Row, error) {
		out := make(reldb.Row, 0, len(cols))
		for _, st := range steps {
			if st.star {
				for i, b := range f.cols {
					if st.starTable == "" || b.table == st.starTable {
						out = append(out, row[i])
					}
				}
				continue
			}
			v, err := eval(st.expr, f, row)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return cols, project, nil
}

// --- grouped execution ---

type aggState struct {
	fn       string
	star     bool
	distinct bool

	count   int64
	sum     float64
	sumInt  int64
	allInt  bool
	min     reldb.Value
	max     reldb.Value
	seen    map[string]bool
	started bool
}

func newAggState(fe *FuncExpr) *aggState {
	st := &aggState{fn: fe.Name, star: fe.Star, distinct: fe.Distinct, allInt: true}
	if fe.Distinct {
		st.seen = make(map[string]bool)
	}
	return st
}

func (st *aggState) add(v reldb.Value) {
	if st.star {
		st.count++
		return
	}
	if v.IsNull() {
		return
	}
	if st.distinct {
		k := string(reldb.EncodeKey(nil, v))
		if st.seen[k] {
			return
		}
		st.seen[k] = true
	}
	st.count++
	if v.Kind() == reldb.KindInt {
		st.sumInt += v.Int64()
		st.sum += float64(v.Int64())
	} else if v.Kind() == reldb.KindFloat {
		st.allInt = false
		st.sum += v.Float64()
	}
	if !st.started || reldb.Compare(v, st.min) < 0 {
		st.min = v
	}
	if !st.started || reldb.Compare(v, st.max) > 0 {
		st.max = v
	}
	st.started = true
}

func (st *aggState) result() reldb.Value {
	switch st.fn {
	case "COUNT":
		return reldb.Int(st.count)
	case "SUM":
		if st.count == 0 {
			return reldb.Null()
		}
		if st.allInt {
			return reldb.Int(st.sumInt)
		}
		return reldb.Float(st.sum)
	case "AVG":
		if st.count == 0 {
			return reldb.Null()
		}
		return reldb.Float(st.sum / float64(st.count))
	case "MIN":
		if !st.started {
			return reldb.Null()
		}
		return st.min
	case "MAX":
		if !st.started {
			return reldb.Null()
		}
		return st.max
	}
	return reldb.Null()
}

// evalWithAggs evaluates an expression where aggregate nodes take their
// precomputed group values.
func evalWithAggs(e Expr, f *frame, row reldb.Row, aggVals map[*FuncExpr]reldb.Value) (reldb.Value, error) {
	switch x := e.(type) {
	case *FuncExpr:
		v, ok := aggVals[x]
		if !ok {
			return reldb.Null(), fmt.Errorf("sql: aggregate %s not computed", x.Name)
		}
		return v, nil
	case *BinaryExpr:
		if !hasAggregate(x) {
			return eval(x, f, row)
		}
		l, err := evalWithAggs(x.L, f, row, aggVals)
		if err != nil {
			return reldb.Null(), err
		}
		r, err := evalWithAggs(x.R, f, row, aggVals)
		if err != nil {
			return reldb.Null(), err
		}
		return evalBinary(&BinaryExpr{Op: x.Op, L: &Literal{Value: l}, R: &Literal{Value: r}}, f, row)
	case *UnaryExpr:
		if !hasAggregate(x) {
			return eval(x, f, row)
		}
		v, err := evalWithAggs(x.X, f, row, aggVals)
		if err != nil {
			return reldb.Null(), err
		}
		return eval(&UnaryExpr{Op: x.Op, X: &Literal{Value: v}}, f, row)
	default:
		return eval(e, f, row)
	}
}

// group is one aggregation group: a representative input row for the
// group-key columns plus one accumulator per aggregate call node.
type group struct {
	repr   reldb.Row
	states []*aggState
}

// SelectAggregates returns the aggregate call nodes of a SELECT (from the
// select list, ORDER BY, and HAVING) in the canonical order the grouped
// executor consumes them and FinishGrouped expects each group's Aggs
// slice to follow. It rejects SELECT * combined with aggregation.
func SelectAggregates(s *SelectStmt) ([]*FuncExpr, error) {
	var aggs []*FuncExpr
	collect := func(e Expr) {
		Walk(e, func(x Expr) bool {
			fe, ok := x.(*FuncExpr)
			if ok {
				aggs = append(aggs, fe)
			}
			return !ok
		})
	}
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY or aggregates")
		}
		collect(item.Expr)
	}
	for _, oi := range s.OrderBy {
		collect(oi.Expr)
	}
	collect(s.Having)
	return aggs, nil
}

// newGroup starts a group whose group-key columns are repr's.
func newGroup(repr reldb.Row, aggs []*FuncExpr) *group {
	g := &group{repr: repr}
	for _, fe := range aggs {
		g.states = append(g.states, newAggState(fe))
	}
	return g
}

// grouped is the fold of an aggregate SELECT: each row into its group's
// accumulators, a group keeping a copy of its first row for the
// group-key columns.
func grouped(s *SelectStmt, f *frame) (func(reldb.Row) error, func() (*Result, error), error) {
	aggs, err := SelectAggregates(s)
	if err != nil {
		return nil, nil, err
	}
	groups := map[string]*group{}
	var order []*group // first-seen order
	var keyVals reldb.Row
	var key []byte
	fold := func(row reldb.Row) error {
		keyVals = keyVals[:0]
		for _, ge := range s.GroupBy {
			v, err := eval(ge, f, row)
			if err != nil {
				return err
			}
			keyVals = append(keyVals, v)
		}
		key = reldb.EncodeKey(key[:0], keyVals...)
		g, ok := groups[string(key)]
		if !ok {
			g = newGroup(row.Clone(), aggs)
			groups[string(key)] = g
			order = append(order, g)
		}
		for i, fe := range aggs {
			if fe.Star {
				g.states[i].add(reldb.Null())
				continue
			}
			v, err := eval(fe.Arg, f, row)
			if err != nil {
				return err
			}
			g.states[i].add(v)
		}
		return nil
	}
	return fold, func() (*Result, error) { return finishGrouped(s, f, aggs, order) }, nil
}

// finishGrouped completes a grouped SELECT from fully-accumulated groups:
// HAVING, projection, ORDER BY, DISTINCT, LIMIT/OFFSET. An aggregate
// query with no GROUP BY and no groups still yields one row, of an
// all-NULL group (e.g. COUNT(*) = 0).
func finishGrouped(s *SelectStmt, f *frame, aggs []*FuncExpr, groups []*group) (*Result, error) {
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, newGroup(make(reldb.Row, len(f.cols)), aggs))
	}
	var cols []string
	for _, item := range s.Items {
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		cols = append(cols, name)
	}
	var items []sortable
	for _, g := range groups {
		aggVals := make(map[*FuncExpr]reldb.Value, len(aggs))
		for i, fe := range aggs {
			aggVals[fe] = g.states[i].result()
		}
		if s.Having != nil {
			hv, err := evalWithAggs(s.Having, f, g.repr, aggVals)
			if err != nil {
				return nil, err
			}
			if hv.Kind() != reldb.KindBool || !hv.Truth() {
				continue
			}
		}
		out := make(reldb.Row, 0, len(s.Items))
		for _, item := range s.Items {
			v, err := evalWithAggs(item.Expr, f, g.repr, aggVals)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		var keys reldb.Row
		for _, oi := range s.OrderBy {
			var kv reldb.Value
			var err error
			if hasAggregate(oi.Expr) {
				kv, err = evalWithAggs(oi.Expr, f, g.repr, aggVals)
			} else {
				kv, err = evalOrderKey(oi.Expr, f, g.repr, s.Items, cols, out)
			}
			if err != nil {
				return nil, err
			}
			keys = append(keys, kv)
		}
		items = append(items, sortable{out: out, keys: keys})
	}
	return finish(s, cols, items), nil
}

// FormatTable renders a result set as an aligned text table for CLI output.
func (r *Result) FormatTable() string {
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
		}
	}
	return FormatCells(r.Columns, cells)
}

// FormatCells lays already-rendered cells out as FormatTable does: a
// header, a dashed rule, and one line per row, columns padded to the
// widest entry.
func FormatCells(columns []string, cells [][]string) string {
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	for _, row := range cells {
		for ci, s := range row {
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
