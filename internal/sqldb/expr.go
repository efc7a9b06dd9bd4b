package sqldb

import (
	"fmt"
	"strings"

	"perftrack/internal/reldb"
)

// colBinding names one column of an execution row: the table alias it came
// from and its column name.
type colBinding struct {
	table  string
	column string
}

// frame resolves column references against the bound row layout.
type frame struct {
	cols []colBinding
}

// resolve returns the position of a column reference, or an error if the
// reference is missing or ambiguous.
func (f *frame) resolve(ref *ColumnRef) (int, error) {
	found := -1
	for i, b := range f.cols {
		if ref.Table != "" && b.table != ref.Table {
			continue
		}
		if b.column != ref.Column {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", ref.Column)
		}
		found = i
	}
	if found < 0 {
		if ref.Table != "" {
			return 0, fmt.Errorf("sql: no column %s.%s", ref.Table, ref.Column)
		}
		return 0, fmt.Errorf("sql: no column %q", ref.Column)
	}
	return found, nil
}

// eval evaluates a non-aggregate expression against a row. SQL three-valued
// logic applies: comparisons with NULL yield NULL, AND/OR propagate
// unknowns, and WHERE keeps only rows whose predicate is exactly true.
func eval(e Expr, f *frame, row reldb.Row) (reldb.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *ColumnRef:
		i, err := f.resolve(x)
		if err != nil {
			return reldb.Null(), err
		}
		return row[i], nil
	case *UnaryExpr:
		v, err := eval(x.X, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return reldb.Null(), nil
			}
			if v.Kind() != reldb.KindBool {
				return reldb.Null(), fmt.Errorf("sql: NOT applied to %v", v.Kind())
			}
			return reldb.Bool(!v.Truth()), nil
		case "-":
			switch v.Kind() {
			case reldb.KindNull:
				return reldb.Null(), nil
			case reldb.KindInt:
				return reldb.Int(-v.Int64()), nil
			case reldb.KindFloat:
				return reldb.Float(-v.Float64()), nil
			default:
				return reldb.Null(), fmt.Errorf("sql: unary minus applied to %v", v.Kind())
			}
		}
		return reldb.Null(), fmt.Errorf("sql: unknown unary op %q", x.Op)
	case *BinaryExpr:
		return evalBinary(x, f, row)
	case *IsNullExpr:
		v, err := eval(x.X, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return reldb.Bool(res), nil
	case *InExpr:
		v, err := eval(x.X, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		if v.IsNull() {
			return reldb.Null(), nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := eval(item, f, row)
			if err != nil {
				return reldb.Null(), err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if reldb.Equal(v, iv) {
				return reldb.Bool(!x.Not), nil
			}
		}
		if sawNull {
			return reldb.Null(), nil
		}
		return reldb.Bool(x.Not), nil
	case *BetweenExpr:
		v, err := eval(x.X, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		lo, err := eval(x.Lo, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		hi, err := eval(x.Hi, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return reldb.Null(), nil
		}
		in := reldb.Compare(v, lo) >= 0 && reldb.Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return reldb.Bool(in), nil
	case *FuncExpr:
		return reldb.Null(), fmt.Errorf("sql: aggregate %s used outside GROUP BY context", x.Name)
	default:
		return reldb.Null(), fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

func evalBinary(x *BinaryExpr, f *frame, row reldb.Row) (reldb.Value, error) {
	switch x.Op {
	case "AND", "OR":
		l, err := eval(x.L, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		// Short-circuit where three-valued logic allows.
		if x.Op == "AND" && l.Kind() == reldb.KindBool && !l.Truth() {
			return reldb.Bool(false), nil
		}
		if x.Op == "OR" && l.Kind() == reldb.KindBool && l.Truth() {
			return reldb.Bool(true), nil
		}
		r, err := eval(x.R, f, row)
		if err != nil {
			return reldb.Null(), err
		}
		return evalLogic(x.Op, l, r)
	}
	l, err := eval(x.L, f, row)
	if err != nil {
		return reldb.Null(), err
	}
	r, err := eval(x.R, f, row)
	if err != nil {
		return reldb.Null(), err
	}
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return reldb.Null(), nil
		}
		c := reldb.Compare(l, r)
		var res bool
		switch x.Op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return reldb.Bool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return reldb.Null(), nil
		}
		if l.Kind() != reldb.KindString || r.Kind() != reldb.KindString {
			return reldb.Null(), fmt.Errorf("sql: LIKE requires strings")
		}
		return reldb.Bool(likeMatch(r.Text(), l.Text())), nil
	case "+", "-", "*", "/":
		return evalArith(x.Op, l, r)
	}
	return reldb.Null(), fmt.Errorf("sql: unknown operator %q", x.Op)
}

func evalLogic(op string, l, r reldb.Value) (reldb.Value, error) {
	toBool := func(v reldb.Value) (bool, bool, error) { // value, isNull, err
		if v.IsNull() {
			return false, true, nil
		}
		if v.Kind() != reldb.KindBool {
			return false, false, fmt.Errorf("sql: %s applied to %v", op, v.Kind())
		}
		return v.Truth(), false, nil
	}
	lb, ln, err := toBool(l)
	if err != nil {
		return reldb.Null(), err
	}
	rb, rn, err := toBool(r)
	if err != nil {
		return reldb.Null(), err
	}
	if op == "AND" {
		switch {
		case !ln && !lb, !rn && !rb:
			return reldb.Bool(false), nil
		case ln || rn:
			return reldb.Null(), nil
		default:
			return reldb.Bool(true), nil
		}
	}
	// OR
	switch {
	case !ln && lb, !rn && rb:
		return reldb.Bool(true), nil
	case ln || rn:
		return reldb.Null(), nil
	default:
		return reldb.Bool(false), nil
	}
}

func evalArith(op string, l, r reldb.Value) (reldb.Value, error) {
	if l.IsNull() || r.IsNull() {
		return reldb.Null(), nil
	}
	intOp := l.Kind() == reldb.KindInt && r.Kind() == reldb.KindInt
	numeric := func(v reldb.Value) bool {
		return v.Kind() == reldb.KindInt || v.Kind() == reldb.KindFloat
	}
	if !numeric(l) || !numeric(r) {
		return reldb.Null(), fmt.Errorf("sql: arithmetic on non-numeric values")
	}
	if op == "/" {
		// Division always yields a float; dividing by zero yields NULL.
		if r.Float64() == 0 {
			return reldb.Null(), nil
		}
		return reldb.Float(l.Float64() / r.Float64()), nil
	}
	if intOp {
		a, b := l.Int64(), r.Int64()
		switch op {
		case "+":
			return reldb.Int(a + b), nil
		case "-":
			return reldb.Int(a - b), nil
		case "*":
			return reldb.Int(a * b), nil
		}
	}
	a, b := l.Float64(), r.Float64()
	switch op {
	case "+":
		return reldb.Float(a + b), nil
	case "-":
		return reldb.Float(a - b), nil
	case "*":
		return reldb.Float(a * b), nil
	}
	return reldb.Null(), fmt.Errorf("sql: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE: % matches any run, _ matches one
// character. Matching is case-sensitive, as in PostgreSQL.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// hasAggregate reports whether the expression tree contains an aggregate
// function call.
func hasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		_, isAgg := x.(*FuncExpr)
		found = found || isAgg
		return !found
	})
	return found
}

// exprName derives a display name for an output column.
func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Column
	case *FuncExpr:
		if x.Star {
			return strings.ToLower(x.Name) + "(*)"
		}
		return strings.ToLower(x.Name) + "(" + exprName(x.Arg) + ")"
	case *Literal:
		return x.Value.String()
	case *BinaryExpr:
		return exprName(x.L) + x.Op + exprName(x.R)
	default:
		return "expr"
	}
}
