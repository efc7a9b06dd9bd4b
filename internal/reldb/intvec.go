package reldb

import "slices"

// IntVec is a resident integer column: a base and each value's offset
// from it, held at the least width in {0, 1, 2, 4, 8} bytes that holds
// the column's max − min (frame-of-reference coding, Goldstein,
// Ramakrishnan & Shaft, ICDE 1998). Width 0 is a constant column, every
// value the base; width 8 holds the values themselves, base 0. Offsets are
// taken modulo 2^64, so any int64 values fit and reading one back is one
// addition.
//
// Rows still being added — a tail, a transaction's block, a transposer's
// window — are held at width 8, where an append is a plain append; a block
// that will not grow again is narrowed once (narrowed), and a segment file
// decodes straight to the width its footer's ranges call for. A reader
// switches on Width once per block and then reads a plain slice of the
// element type (U8, U16, U32, I64), or calls At.
type IntVec struct {
	base int64
	n    int
	w    uint8
	u8   []uint8
	u16  []uint16
	u32  []uint32
	i64  []int64
}

// Offsets is the element type of an IntVec at one width: the offsets from
// the base at widths 1, 2 and 4, the values themselves at width 8.
type Offsets interface {
	uint8 | uint16 | uint32 | int64
}

// Len reports the number of values.
func (v *IntVec) Len() int { return v.n }

// Width reports the bytes each value takes: 0, 1, 2, 4 or 8.
func (v *IntVec) Width() int { return int(v.w) }

// Base returns the value every offset is added to; 0 at width 8.
func (v *IntVec) Base() int64 { return v.base }

// U8 returns the offsets at width 1, else nil.
func (v *IntVec) U8() []uint8 { return v.u8 }

// U16 returns the offsets at width 2, else nil.
func (v *IntVec) U16() []uint16 { return v.u16 }

// U32 returns the offsets at width 4, else nil.
func (v *IntVec) U32() []uint32 { return v.u32 }

// I64 returns the values at width 8, else nil.
func (v *IntVec) I64() []int64 { return v.i64 }

// At returns value i.
func (v *IntVec) At(i int) int64 {
	switch v.w {
	case 1:
		return v.base + int64(v.u8[i])
	case 2:
		return v.base + int64(v.u16[i])
	case 4:
		return v.base + int64(v.u32[i])
	case 8:
		return v.i64[i]
	}
	return v.base
}

// Offset returns x less the base, as the element types hold offsets, and
// whether an offset at the vector's width can be that: when it cannot, no
// value of the vector is x. An equality test on a narrow column compares
// this with each offset in the column's own width.
func (v *IntVec) Offset(x int64) (uint64, bool) {
	d := uint64(x) - uint64(v.base)
	return d, v.w == 8 || d>>(8*v.w) == 0
}

// widthFor is the least width whose offsets from lo reach hi. The span is
// taken in uint64, so one wider than MaxInt64 lands at width 8.
func widthFor(lo, hi int64) uint8 {
	span := uint64(hi) - uint64(lo)
	for _, w := range []uint8{0, 1, 2, 4} {
		if span>>(8*w) == 0 {
			return w
		}
	}
	return 8
}

// reset empties the vector to width 8, keeping its storage there and
// making room for n values.
func (v *IntVec) reset(n int) {
	v.base, v.n, v.w = 0, 0, 8
	v.u8, v.u16, v.u32 = nil, nil, nil
	v.i64 = slices.Grow(v.i64[:0], n)
}

// push appends x to a vector at width 8.
func (v *IntVec) push(x int64) {
	v.i64 = append(v.i64, x)
	v.n++
}

// appendVec appends the values of src to v, both at width 8.
func (v *IntVec) appendVec(src *IntVec) {
	v.i64 = append(v.i64, src.i64...)
	v.n += src.n
}

// slice returns values [from, to), sharing their storage; appends to v
// do not reach it.
func (v *IntVec) slice(from, to int) IntVec {
	s := IntVec{base: v.base, n: to - from, w: v.w}
	switch v.w {
	case 1:
		s.u8 = v.u8[from:to:to]
	case 2:
		s.u16 = v.u16[from:to:to]
	case 4:
		s.u32 = v.u32[from:to:to]
	case 8:
		s.i64 = v.i64[from:to:to]
	}
	return s
}

// narrowed returns the vector at the least width that holds its values,
// with no slack: a narrow vector is returned as it is, a width-8 one is
// copied.
func (v *IntVec) narrowed() IntVec {
	if v.w != 8 {
		return *v
	}
	var lo, hi int64
	if v.n > 0 {
		lo, hi = slices.Min(v.i64), slices.Max(v.i64)
	}
	out := IntVec{base: lo, n: v.n, w: widthFor(lo, hi)}
	switch out.w {
	case 1:
		out.u8 = offsetsOf[uint8](v.i64, lo)
	case 2:
		out.u16 = offsetsOf[uint16](v.i64, lo)
	case 4:
		out.u32 = offsetsOf[uint32](v.i64, lo)
	case 8:
		out.base, out.i64 = 0, slices.Clone(v.i64)
	}
	return out
}

func offsetsOf[T Offsets](vals []int64, base int64) []T {
	out := make([]T, len(vals))
	for i, x := range vals {
		out[i] = T(x - base)
	}
	return out
}

// bytes is what the vector's storage takes, slack included.
func (v *IntVec) bytes() int64 {
	return int64(cap(v.u8) + 2*cap(v.u16) + 4*cap(v.u32) + 8*cap(v.i64))
}

// minMax returns the least and greatest value; 0, 0 when there is none.
func (v *IntVec) minMax() (lo, hi int64) {
	for i := 0; i < v.n; i++ {
		x := v.At(i)
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// sorted reports whether the values ascend.
func (v *IntVec) sorted() bool {
	for i := 1; i < v.n; i++ {
		if v.At(i) < v.At(i-1) {
			return false
		}
	}
	return true
}
