package datastore

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func refIntersect(a, b []int64) []int64 {
	in := make(map[int64]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []int64
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func refUnion(a, b []int64) []int64 {
	return sortDedup(append(slices.Clone(a), b...))
}

func equalSets(a, b []int64) bool { return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b)) }

// formBytes is what the bitmap and the offsets forms of ids take.
func formBytes(ids []int64) (bitmap, offsets int64) {
	span := uint64(ids[len(ids)-1] - ids[0])
	return 8 * int64(span/64+1), 8 * ((int64(len(ids))*int64(offsetWidth(span)) + 7) / 8)
}

// checkSet pins s against the sorted, duplicate-free reference ids: its
// length, its expansion, and that it takes the smaller form, exactly.
func checkSet(t *testing.T, what string, s IDSet, ids []int64) {
	t.Helper()
	if s.Len() != len(ids) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), len(ids))
	}
	if got := s.IDs(); !equalSets(got, ids) {
		t.Fatalf("%s: IDs = %v, want %v", what, got, ids)
	}
	if len(ids) == 0 {
		if s.bytes() != 0 {
			t.Fatalf("%s: the empty set allocates %d bytes", what, s.bytes())
		}
		return
	}
	bitmap, offsets := formBytes(ids)
	if want := min(bitmap, offsets); s.bytes() != want || len(s.words) != cap(s.words) {
		t.Fatalf("%s: %d bytes (len %d, cap %d words), want %d (bitmap %d, offsets %d)",
			what, s.bytes(), len(s.words), cap(s.words), want, bitmap, offsets)
	}
}

func TestSortDedup(t *testing.T) {
	cases := []struct {
		in, want []int64
	}{
		{nil, nil},
		{[]int64{5}, []int64{5}},
		{[]int64{3, 1, 2}, []int64{1, 2, 3}},
		{[]int64{2, 2, 2}, []int64{2}},
		{[]int64{9, 1, 9, 1, 5}, []int64{1, 5, 9}},
	}
	for _, c := range cases {
		got := sortDedup(append([]int64(nil), c.in...))
		if !equalSets(got, c.want) {
			t.Errorf("sortDedup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGallopSearch(t *testing.T) {
	var ids []int64
	for v := int64(2000); v <= 20000; v += 2000 {
		ids = append(ids, v)
	}
	s := NewIDSet(ids)
	if s.width == 0 {
		t.Fatal("a sparse set was packed as a bitmap")
	}
	for from := range len(ids) {
		for v := int64(0); v <= 22000; v += 500 {
			want := from + sort.Search(len(ids)-from, func(i int) bool { return ids[from+i] >= v })
			if got := s.gallop(from, v); got != want {
				t.Errorf("gallop(%d, %d) = %d, want %d", from, v, got, want)
			}
		}
	}
	if got := (IDSet{}).gallop(0, 1); got != 0 {
		t.Errorf("gallop(empty) = %d", got)
	}
}

func TestIntersectEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		a, b []int64
		want []int64
	}{
		{"both-empty", nil, nil, nil},
		{"one-empty", []int64{1, 2}, nil, nil},
		{"disjoint", []int64{1, 3, 5}, []int64{2, 4, 6}, nil},
		{"identical", []int64{1, 2, 3}, []int64{1, 2, 3}, []int64{1, 2, 3}},
		{"subset", []int64{2, 4}, []int64{1, 2, 3, 4, 5}, []int64{2, 4}},
		{"tails", []int64{1, 100}, []int64{100, 200}, []int64{100}},
		{"ranges apart", []int64{1, 2, 3}, []int64{1000, 1001}, nil},
		{"bitmap words apart", []int64{0, 63, 64, 65, 127, 128, 1000}, []int64{63, 64, 128, 129, 1000}, []int64{63, 64, 128, 1000}},
	}
	for _, c := range cases {
		a, b := NewIDSet(c.a), NewIDSet(c.b)
		checkSet(t, c.name, a.Intersect(b), c.want)
		checkSet(t, c.name+" (swapped)", b.Intersect(a), c.want)
	}
}

// randomIDs draws about n distinct IDs from [lo, lo+span), sorted.
func randomIDs(rng *rand.Rand, n int, lo, span int64) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = lo + rng.Int63n(span)
	}
	return sortDedup(ids)
}

// TestIntersectRandomized checks every pairing of the two forms — and the
// merge and galloping paths between offsets sets — against a map-based
// reference, at densities from full to sparse and with skewed sizes.
func TestIntersectRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		n    int
		span int64
	}{
		{0, 10}, {1, 10}, {10, 10}, {100, 120}, {1000, 1100}, {3000, 3000}, // dense: bitmaps
		{5, 1000}, {100, 1 << 14}, {300, 1 << 20}, {1000, 1 << 40}, {10000, 1 << 16}, // sparse: offsets
	}
	for _, sa := range shapes {
		for _, sb := range shapes {
			for trial := 0; trial < 4; trial++ {
				lo := rng.Int63n(200)
				a, b := randomIDs(rng, sa.n, lo, sa.span), randomIDs(rng, sb.n, 0, sb.span)
				what := fmt.Sprintf("%v ∩ %v trial %d", sa, sb, trial)
				checkSet(t, what, NewIDSet(a).Intersect(NewIDSet(b)), refIntersect(a, b))
				checkSet(t, "union "+what, NewIDSet(a).Union(NewIDSet(b)), refUnion(a, b))
			}
		}
	}
}

func TestIntersectAll(t *testing.T) {
	if got := intersectAll(nil); got.Len() != 0 {
		t.Errorf("intersectAll(nil) = %v", got.IDs())
	}
	one := NewIDSet([]int64{1, 2, 3})
	checkSet(t, "single set", intersectAll([]IDSet{one}), []int64{1, 2, 3})
	got := intersectAll([]IDSet{
		NewIDSet([]int64{1, 2, 3, 4, 5, 6}),
		NewIDSet([]int64{2, 4, 6, 8}),
		NewIDSet([]int64{4, 6, 10}),
	})
	checkSet(t, "three-way", got, []int64{4, 6})
	// An empty set anywhere empties the result without touching the rest.
	got = intersectAll([]IDSet{NewIDSet([]int64{1, 2}), {}, NewIDSet([]int64{2, 3})})
	checkSet(t, "with empty member", got, nil)
}

// TestIDSetForms pins the density rule: a dense run is a bitmap, a sparse
// one offsets at the least width its span needs.
func TestIDSetForms(t *testing.T) {
	seq := func(n int, lo, stride int64) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = lo + int64(i)*stride
		}
		return ids
	}
	for _, c := range []struct {
		name  string
		ids   []int64
		width uint8
	}{
		{"full run", seq(4096, 1, 1), 0},
		{"every 7th", seq(4096, 1, 7), 0},
		{"every 9th", seq(20, 1, 9), 1},
		{"every 100th", seq(600, 1<<40, 100), 2},
		{"every 2^30th", seq(100, -5, 1<<30), 8},
		{"every 2^16th", seq(100, 0, 1<<16), 4},
	} {
		s := NewIDSet(c.ids)
		if s.width != c.width {
			t.Errorf("%s: width %d, want %d", c.name, s.width, c.width)
		}
		checkSet(t, c.name, s, c.ids)
	}
}

// FuzzIDSet checks the packed set — its length, its expansion, its
// intersection and its union — against the sorted-slice reference. A set
// is a base, a shift and a code: each code byte b adds a run of
// 1+8*(b>>4) consecutive IDs, then skips (b&15)<<shift IDs, so a few
// bytes reach thousands of IDs, spans past 2^32 and any density.
func FuzzIDSet(f *testing.F) {
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	f.Add(int64(0), []byte{}, uint8(0), int64(5), []byte{1, 2}, uint8(0))                   // empty
	f.Add(int64(7), []byte{0}, uint8(0), int64(7), []byte{0}, uint8(0))                     // one ID each, span 0
	f.Add(int64(-3), []byte{0}, uint8(0), int64(1)<<40, []byte{0x10}, uint8(0))             // one ID against a run, far apart
	f.Add(int64(1), []byte{1, 0x21, 3}, uint8(32), int64(1), []byte{2, 0x11, 1}, uint8(32)) // span >= 2^32
	f.Add(int64(100), fill(0xf0, 40), uint8(0), int64(3000), fill(0xf0, 20), uint8(0))      // 100% dense
	f.Add(int64(0), fill(0x0f, 60), uint8(3), int64(0), fill(0xf0, 64), uint8(0))           // 1% dense against full
	f.Add(int64(0), fill(0x04, 30), uint8(0), int64(0), fill(0x08, 28), uint8(0))           // strides 5 and 9 at width 1: the form flips
	f.Add(int64(0), fill(0x0e, 64), uint8(0), int64(3), fill(0x0f, 64), uint8(0))           // strides 15 and 16 at width 2: it flips
	f.Fuzz(func(t *testing.T, aBase int64, aCode []byte, aShift uint8, bBase int64, bCode []byte, bShift uint8) {
		build := func(base int64, code []byte, shift uint8) []int64 {
			if len(code) > 64 {
				code = code[:64]
			}
			id := base % (1 << 60)
			var ids []int64
			for _, b := range code {
				for range 1 + 8*int(b>>4) {
					ids = append(ids, id)
					id++
				}
				id += int64(b&15) << (shift % 41)
			}
			return ids
		}
		a, b := build(aBase, aCode, aShift), build(bBase, bCode, bShift)
		sa, sb := NewIDSet(a), NewIDSet(b)
		checkSet(t, "a", sa, a)
		checkSet(t, "b", sb, b)
		inter, union := refIntersect(a, b), refUnion(a, b)
		checkSet(t, "a ∩ b", sa.Intersect(sb), inter)
		checkSet(t, "b ∩ a", sb.Intersect(sa), inter)
		checkSet(t, "a ∪ b", sa.Union(sb), union)
		checkSet(t, "b ∪ a", sb.Union(sa), union)
	})
}
