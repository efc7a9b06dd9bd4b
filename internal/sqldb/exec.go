package sqldb

import (
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

// Source hands the executor the tables a statement names: each table's
// column names in row order and its rows, or ok=false when there is no
// such table. The executor only reads what it is handed (neither the
// slice nor a row is modified), so a source decides what a statement can
// see — the planner passes the virtual catalog's materialized rows or the
// engine's physical tables.
type Source func(table string) (columns []string, rows []reldb.Row, ok bool)

// Execute runs a parsed SELECT over the tables src provides: FROM and
// JOINs (hash join on an equi-condition, nested loop otherwise), WHERE,
// then grouping with HAVING or plain projection, ORDER BY, DISTINCT and
// LIMIT/OFFSET. The statement's WHERE is always applied here, so a source
// may hand over a superset of the matching rows.
func Execute(s *SelectStmt, src Source) (*Result, error) {
	rows, f, err := buildInput(s, src)
	if err != nil {
		return nil, err
	}
	if s.Where != nil {
		kept := make([]reldb.Row, 0, len(rows))
		for _, row := range rows {
			ok, err := isTrue(s.Where, f, row)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rows = kept
	}
	if HasAggregates(s) {
		return execGrouped(s, rows, f)
	}
	return execPlain(s, rows, f)
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

// buildInput reads the FROM table and applies JOIN clauses, producing the
// combined rows and the column frame.
func buildInput(s *SelectStmt, src Source) ([]reldb.Row, *frame, error) {
	cols, rows, ok := src(s.From.Table)
	if !ok {
		return nil, nil, fmt.Errorf("sql: no table %q", s.From.Table)
	}
	f := frameFor(s.From.name(), cols)

	for _, j := range s.Joins {
		rightCols, rightRows, ok := src(j.Table.Table)
		if !ok {
			return nil, nil, fmt.Errorf("sql: no table %q", j.Table.Table)
		}
		rightFrame := frameFor(j.Table.name(), rightCols)
		combined := &frame{cols: append(append([]colBinding{}, f.cols...), rightFrame.cols...)}

		// Try a hash join on an equi-condition a = b splitting across sides.
		leftKey, rightKey := splitEquiJoin(j.On, f, rightFrame)
		var out []reldb.Row
		if leftKey != nil && rightKey != nil {
			hash := make(map[string][]reldb.Row, len(rightRows))
			for _, rr := range rightRows {
				kv, err := eval(rightKey, rightFrame, rr)
				if err != nil {
					return nil, nil, err
				}
				if kv.IsNull() {
					continue
				}
				k := joinKey(kv)
				hash[k] = append(hash[k], rr)
			}
			for _, lr := range rows {
				kv, err := eval(leftKey, f, lr)
				if err != nil {
					return nil, nil, err
				}
				matched := false
				if !kv.IsNull() {
					for _, rr := range hash[joinKey(kv)] {
						joined := append(append(reldb.Row{}, lr...), rr...)
						ok, err := isTrue(j.On, combined, joined)
						if err != nil {
							return nil, nil, err
						}
						if ok {
							out = append(out, joined)
							matched = true
						}
					}
				}
				if j.Left && !matched {
					out = append(out, padRight(lr, len(rightCols)))
				}
			}
		} else {
			// Nested loop.
			for _, lr := range rows {
				matched := false
				for _, rr := range rightRows {
					joined := append(append(reldb.Row{}, lr...), rr...)
					ok, err := isTrue(j.On, combined, joined)
					if err != nil {
						return nil, nil, err
					}
					if ok {
						out = append(out, joined)
						matched = true
					}
				}
				if j.Left && !matched {
					out = append(out, padRight(lr, len(rightCols)))
				}
			}
		}
		rows = out
		f = combined
	}
	return rows, f, nil
}

// joinKey is the hash-join bucket of a key value. Integers bucket as
// floats because the ON condition compares 1 and 1.0 equal; a bucket may
// therefore hold near misses, which re-evaluating ON per pair rejects.
func joinKey(v reldb.Value) string {
	if v.Kind() == reldb.KindInt {
		v = reldb.Float(float64(v.Int64()))
	}
	return string(reldb.EncodeKey(nil, v))
}

func padRight(left reldb.Row, n int) reldb.Row {
	out := append(reldb.Row{}, left...)
	for i := 0; i < n; i++ {
		out = append(out, reldb.Null())
	}
	return out
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

// execPlain handles non-aggregated SELECT: projection, DISTINCT, ORDER BY,
// LIMIT/OFFSET.
func execPlain(s *SelectStmt, rows []reldb.Row, f *frame) (*Result, error) {
	cols, project, err := makeProjection(s.Items, f)
	if err != nil {
		return nil, err
	}
	type sortable struct {
		out  reldb.Row
		keys reldb.Row
	}
	items := make([]sortable, 0, len(rows))
	for _, row := range rows {
		out, err := project(row)
		if err != nil {
			return nil, err
		}
		var keys reldb.Row
		for _, oi := range s.OrderBy {
			k, err := evalOrderKey(oi.Expr, f, row, s.Items, cols, out)
			if err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
		items = append(items, sortable{out: out, keys: keys})
	}
	if len(s.OrderBy) > 0 {
		sort.SliceStable(items, func(i, j int) bool {
			return orderLess(items[i].keys, items[j].keys, s.OrderBy)
		})
	}
	outRows := make([]reldb.Row, len(items))
	for i, it := range items {
		outRows[i] = it.out
	}
	if s.Distinct {
		outRows = distinctRows(outRows)
	}
	outRows = applyLimit(outRows, s.Limit, s.Offset)
	return &Result{Columns: cols, Rows: outRows}, nil
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

// collectAggs gathers the aggregate call nodes in an expression tree.
func collectAggs(e Expr, out *[]*FuncExpr) {
	switch x := e.(type) {
	case *FuncExpr:
		*out = append(*out, x)
	case *BinaryExpr:
		collectAggs(x.L, out)
		collectAggs(x.R, out)
	case *UnaryExpr:
		collectAggs(x.X, out)
	case *InExpr:
		collectAggs(x.X, out)
		for _, i := range x.List {
			collectAggs(i, out)
		}
	case *IsNullExpr:
		collectAggs(x.X, out)
	case *BetweenExpr:
		collectAggs(x.X, out)
		collectAggs(x.Lo, out)
		collectAggs(x.Hi, out)
	}
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

// collectSelectAggs gathers the aggregate call nodes of a SELECT from the
// select list, ORDER BY, and HAVING, in the canonical order the grouped
// executor (and FinishGrouped) consumes them.
func collectSelectAggs(s *SelectStmt) ([]*FuncExpr, error) {
	var aggs []*FuncExpr
	for _, item := range s.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY or aggregates")
		}
		collectAggs(item.Expr, &aggs)
	}
	for _, oi := range s.OrderBy {
		collectAggs(oi.Expr, &aggs)
	}
	if s.Having != nil {
		collectAggs(s.Having, &aggs)
	}
	return aggs, nil
}

// emptyGroup builds the single all-null group that an aggregate query with
// no GROUP BY and no input rows still yields (e.g. COUNT(*) = 0).
func emptyGroup(ncols int, aggs []*FuncExpr) *group {
	g := &group{repr: make(reldb.Row, ncols)}
	for i := range g.repr {
		g.repr[i] = reldb.Null()
	}
	for _, fe := range aggs {
		g.states = append(g.states, newAggState(fe))
	}
	return g
}

func execGrouped(s *SelectStmt, rows []reldb.Row, f *frame) (*Result, error) {
	aggs, err := collectSelectAggs(s)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*group)
	var order []string // first-seen order
	for _, row := range rows {
		var keyVals reldb.Row
		for _, ge := range s.GroupBy {
			v, err := eval(ge, f, row)
			if err != nil {
				return nil, err
			}
			keyVals = append(keyVals, v)
		}
		k := string(reldb.EncodeKey(nil, keyVals...))
		g, ok := groups[k]
		if !ok {
			g = &group{repr: row}
			for _, fe := range aggs {
				g.states = append(g.states, newAggState(fe))
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, fe := range aggs {
			if fe.Star {
				g.states[i].add(reldb.Null())
				continue
			}
			v, err := eval(fe.Arg, f, row)
			if err != nil {
				return nil, err
			}
			g.states[i].add(v)
		}
	}
	// An aggregate query with no GROUP BY and no input rows still yields
	// one row (e.g. COUNT(*) = 0).
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = emptyGroup(len(f.cols), aggs)
		order = append(order, "")
	}
	ordered := make([]*group, len(order))
	for i, k := range order {
		ordered[i] = groups[k]
	}
	return finishGrouped(s, f, aggs, ordered)
}

// finishGrouped completes a grouped SELECT from fully-accumulated groups:
// HAVING, projection, ORDER BY, DISTINCT, LIMIT/OFFSET.
func finishGrouped(s *SelectStmt, f *frame, aggs []*FuncExpr, ordered []*group) (*Result, error) {
	var cols []string
	for _, item := range s.Items {
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		cols = append(cols, name)
	}

	type sortable struct {
		out  reldb.Row
		keys reldb.Row
	}
	var outItems []sortable
	for _, g := range ordered {
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
		outItems = append(outItems, sortable{out: out, keys: keys})
	}
	if len(s.OrderBy) > 0 {
		sort.SliceStable(outItems, func(i, j int) bool {
			return orderLess(outItems[i].keys, outItems[j].keys, s.OrderBy)
		})
	}
	outRows := make([]reldb.Row, len(outItems))
	for i, it := range outItems {
		outRows[i] = it.out
	}
	if s.Distinct {
		outRows = distinctRows(outRows)
	}
	outRows = applyLimit(outRows, s.Limit, s.Offset)
	return &Result{Columns: cols, Rows: outRows}, nil
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
