package reldb

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// intVecShape builds the values of one of FuzzIntVecForms' shapes: a
// constant, a consecutive run, a consecutive run with one gap, a
// descending run, a single value, a stride wide enough to need width 8,
// or raw words.
func intVecShape(shape uint8, base int64, n uint16, at uint16, step int64, raw []byte) []int64 {
	n %= 600
	var vals []int64
	switch shape % 7 {
	case 0:
		for range n {
			vals = append(vals, base)
		}
	case 1, 2:
		for i := range int64(n) {
			vals = append(vals, base+i)
		}
		if shape%7 == 2 && n > 0 {
			for i := int(at % n); i < len(vals); i++ {
				vals[i] += max(step, 1)
			}
		}
	case 3:
		for i := range int64(n) {
			vals = append(vals, base-i)
		}
	case 4:
		vals = []int64{base}
	case 5:
		for i := range int64(n) {
			vals = append(vals, base+i*(step|1<<40))
		}
	default:
		for len(raw) >= 8 {
			vals, raw = append(vals, int64(binary.LittleEndian.Uint64(raw))), raw[8:]
		}
	}
	return vals
}

// FuzzIntVecForms holds every form a vector takes — constant, consecutive,
// and offsets at widths 1, 2, 4 and 8 — to the same values held at width
// 8: a vector narrowed, and one read back from the stream either writes,
// must read, search, slice and summarize as the width-8 one does, and
// write the same bytes. Consecutive values must take the consecutive form
// and no bytes, from both.
func FuzzIntVecForms(f *testing.F) {
	f.Add(uint8(0), int64(7), uint16(5), uint16(0), int64(0), []byte{})
	f.Add(uint8(1), int64(1), uint16(300), uint16(0), int64(0), []byte{})
	f.Add(uint8(1), int64(math.MaxInt64-9), uint16(10), uint16(0), int64(0), []byte{}) // ends at MaxInt64
	f.Add(uint8(1), int64(math.MaxInt64-1), uint16(3), uint16(0), int64(0), []byte{})  // wraps round
	f.Add(uint8(2), int64(-5), uint16(40), uint16(17), int64(1), []byte{})
	f.Add(uint8(2), int64(100), uint16(40), uint16(0), int64(1<<20), []byte{})
	f.Add(uint8(3), int64(9), uint16(12), uint16(0), int64(0), []byte{})
	f.Add(uint8(4), int64(math.MinInt64), uint16(0), uint16(0), int64(0), []byte{})
	f.Add(uint8(5), int64(-1<<62), uint16(9), uint16(0), int64(1<<50), []byte{})
	f.Add(uint8(6), int64(0), uint16(0), uint16(0), int64(0),
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxInt64), 1<<63)) // MaxInt64, MinInt64
	f.Add(uint8(1), int64(0), uint16(1), uint16(0), int64(0), []byte{}) // one consecutive value is a constant
	f.Fuzz(func(t *testing.T, shape uint8, base int64, n, at uint16, step int64, raw []byte) {
		vals := intVecShape(shape, base, n, at, step, raw)
		wide := IntVec{n: len(vals), w: 8, i64: vals}
		var lo, hi int64
		if len(vals) > 0 {
			lo, hi = slices.Min(vals), slices.Max(vals)
		}
		seq := len(vals) > 1 && vals[0] == lo && uint64(hi)-uint64(lo) == uint64(len(vals)-1)
		for i := 1; i < len(vals) && seq; i++ {
			seq = vals[i] == vals[i-1]+1
		}
		v := wide.narrowed()
		stream := appendIntVec(nil, &wide)
		if got := appendIntVec(nil, &v); !bytes.Equal(got, stream) {
			t.Fatalf("%v: the narrowed vector writes %x, the width-8 one %x", vals, got, stream)
		}
		rv, rest, err := readIntVec(stream, len(vals), lo, hi)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: read back with %d bytes left: %v", vals, len(rest), err)
		}
		for _, form := range []struct {
			name string
			v    *IntVec
		}{{"narrowed", &v}, {"decoded", &rv}} {
			if form.v.Consecutive() != seq || (seq && (form.v.Width() != 0 || form.v.bytes() != 0)) {
				t.Fatalf("%v: %s vector consecutive %v at width %d in %d bytes, want consecutive %v",
					vals, form.name, form.v.Consecutive(), form.v.Width(), form.v.bytes(), seq)
			}
			if !seq && int(widthFor(lo, hi)) != form.v.Width() {
				t.Fatalf("%v: %s vector at width %d, want %d", vals, form.name, form.v.Width(), widthFor(lo, hi))
			}
			if want := int64(len(vals) * form.v.Width()); form.v.bytes() != want {
				t.Fatalf("%v: %s vector takes %d bytes, want %d", vals, form.name, form.v.bytes(), want)
			}
			checkIntVecForm(t, form.name, form.v, &wide)
			for _, r := range [][2]int{{0, len(vals)}, {len(vals) / 3, len(vals) / 2}, {len(vals) / 2, len(vals)}} {
				s, ws := form.v.slice(r[0], r[1]), wide.slice(r[0], r[1])
				checkIntVecForm(t, form.name+" slice", &s, &ws)
			}
		}
	})
}

// checkIntVecForm holds v to wide, the same values at width 8.
func checkIntVecForm(t *testing.T, name string, v, wide *IntVec) {
	t.Helper()
	vals := wide.I64()
	if got := Values(v); v.Len() != len(vals) || !slices.Equal(got, vals) {
		t.Fatalf("%s vector reads %v, want %v", name, got, vals)
	}
	lo, hi := v.minMax()
	if wlo, whi := wide.minMax(); lo != wlo || hi != whi {
		t.Fatalf("%v: %s vector's range is [%d, %d], want [%d, %d]", vals, name, lo, hi, wlo, whi)
	}
	if v.sorted() != slices.IsSorted(vals) {
		t.Fatalf("%v: %s vector sorted %v", vals, name, v.sorted())
	}
	probes := []int64{math.MinInt64, math.MaxInt64, 0}
	for _, x := range vals {
		probes = append(probes, x, x-1, x+1)
	}
	for _, x := range probes {
		d, ok := v.Offset(x)
		has := slices.Contains(vals, x)
		switch {
		case has && !ok:
			t.Fatalf("%v: %s vector rules %d out", vals, name, x)
		case ok && v.Consecutive() && (d >= uint64(v.Len()) || v.At(int(d)) != x):
			t.Fatalf("%v: %s vector puts %d at position %d", vals, name, x, d)
		case ok && uint64(v.Base())+d != uint64(x):
			t.Fatalf("%v: %s vector's offset of %d is %d above base %d", vals, name, x, d, v.Base())
		}
	}
}
