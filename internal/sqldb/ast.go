package sqldb

import "perftrack/internal/reldb"

// SelectStmt is SELECT with optional JOINs, WHERE, GROUP BY, ORDER BY,
// LIMIT/OFFSET.
type SelectStmt struct {
	Items    []SelectItem
	Distinct bool
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr // group filter; may contain aggregates
	OrderBy  []OrderItem
	Limit    int // -1 means no limit
	Offset   int
}

// SelectItem is one output column: an expression with an optional alias,
// or a star.
type SelectItem struct {
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

func (t TableRef) name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is one JOIN ... ON clause. Only inner and left joins are
// supported.
type JoinClause struct {
	Left  bool
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Expr is a SQL expression tree node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct {
	Value reldb.Value
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string
	Column string
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   string // =, !=, <, <=, >, >=, AND, OR, LIKE, +, -, *, /
	L, R Expr
}

// UnaryExpr is NOT or unary minus.
type UnaryExpr struct {
	Op string // NOT, -
	X  Expr
}

// InExpr is expr [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X      Expr
	Lo, Hi Expr
	Not    bool
}

// FuncExpr is an aggregate call: COUNT/SUM/AVG/MIN/MAX. Star is COUNT(*).
type FuncExpr struct {
	Name     string // upper case
	Star     bool
	Distinct bool
	Arg      Expr
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*InExpr) expr()      {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*FuncExpr) expr()    {}

// Walk calls fn on e and, while fn returns true for a node, on each of
// the node's subexpressions in source order — an aggregate's argument
// included. A nil e is not visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *InExpr:
		Walk(x.X, fn)
		for _, item := range x.List {
			Walk(item, fn)
		}
	case *IsNullExpr:
		Walk(x.X, fn)
	case *BetweenExpr:
		Walk(x.X, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case *FuncExpr:
		Walk(x.Arg, fn)
	}
}
