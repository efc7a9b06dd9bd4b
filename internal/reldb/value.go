// Package reldb implements an embedded relational database engine used as
// the data-store substrate for PerfTrack. It provides typed schemas, tables
// with primary keys, secondary indexes, foreign-key checking, transactions
// with rollback, and one storage engine — every table columnar blocks,
// write-ahead logs, segments a background compactor writes — over either
// of two filesystems: a directory, or memory. The PerfTrack paper ran on Oracle
// or PostgreSQL; reldb's Open(kind, dir) stands in for that two-backend
// portability in an offline, dependency-free build.
package reldb

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the value types a column may hold.
type Kind uint8

// Column value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed datum. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload; it is 0 unless Kind is KindInt.
func (v Value) Int64() int64 { return v.i }

// Float64 returns the float payload. Integer values are widened so that
// numeric columns can be aggregated uniformly.
func (v Value) Float64() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Text returns the string payload; it is "" unless Kind is KindString.
func (v Value) Text() string { return v.s }

// Truth returns the boolean payload; it is false unless Kind is KindBool.
func (v Value) Truth() bool { return v.b }

// String renders the value for display and debugging.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// numericKinds reports whether both values are numeric (int or float).
func numericKinds(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) &&
		(b.kind == KindInt || b.kind == KindFloat)
}

// Compare orders two values. NULL sorts before everything; mixed numeric
// kinds compare numerically; otherwise kinds must match and compare by
// payload. Cross-kind non-numeric comparisons order by kind so that sorting
// heterogeneous data is total and deterministic.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKinds(a, b) && a.kind != b.kind {
		af, bf := a.Float64(), b.Float64()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
	case KindFloat:
		// Order NaN first so comparison is total.
		an, bn := math.IsNaN(a.f), math.IsNaN(b.f)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1
		case a.b && !b.b:
			return 1
		}
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Row is an ordered tuple of values matching a table schema.
type Row []Value

// Clone returns a copy of the row that shares no storage with the original.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// String renders the row for debugging.
func (r Row) String() string {
	out := "("
	for i, v := range r {
		if i > 0 {
			out += ", "
		}
		out += v.String()
	}
	return out + ")"
}
