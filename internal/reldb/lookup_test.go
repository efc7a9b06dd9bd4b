package reldb

import (
	"reflect"
	"slices"
	"testing"
)

// TestLookupIsTheOnlyRowVisitor: no exported method of *Table or *DB
// takes a callback with a Row parameter. A read visits a block and a
// position (Lookup) or whole blocks (Blocks, Gather); a caller that wants
// rows builds them with ColumnBlock.Row.
func TestLookupIsTheOnlyRowVisitor(t *testing.T) {
	row := reflect.TypeOf(Row(nil))
	for _, typ := range []reflect.Type{reflect.TypeOf(&Table{}), reflect.TypeOf(&DB{})} {
		for k := range typ.NumMethod() {
			m := typ.Method(k)
			for a := range m.Type.NumIn() {
				if fn := m.Type.In(a); fn.Kind() == reflect.Func {
					for p := range fn.NumIn() {
						if fn.In(p) == row {
							t.Errorf("%s.%s takes a callback with a Row parameter: %s", typ, m.Name, m.Type)
						}
					}
				}
			}
		}
	}
}

// TestLookupOrder pins Lookup's order on a table of two blocks whose key
// ranges overlap: primary-key order, the blocks merged; for an index,
// block by block in row-ID order, each block's matches in (index key,
// row ID) order — so a whole key visits in row-ID order.
func TestLookupOrder(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, &Schema{
		Name:       "t",
		Columns:    []Column{{Name: "k", Type: KindInt}, {Name: "g", Type: KindInt}, {Name: "h", Type: KindInt}},
		PrimaryKey: []string{"k"},
		Indexes: []IndexSpec{
			{Name: "t_g", Columns: []string{"g"}},
			{Name: "t_gh", Columns: []string{"g", "h"}},
		},
	})
	insert := func(rows ...[3]int64) {
		t.Helper()
		for _, r := range rows {
			if _, err := db.Insert("t", Row{Int(r[0]), Int(r[1]), Int(r[2])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert([3]int64{10, 1, 5}, [3]int64{20, 1, 3}, [3]int64{30, 2, 1})
	if err := db.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	insert([3]int64{25, 1, 4}, [3]int64{15, 1, 1}) // keys inside the segment's range
	tab, _ := db.Table("t")
	keys := func(index string, prefix ...Value) []int64 {
		t.Helper()
		var out []int64
		if err := tab.Lookup(index, prefix, func(b *ColumnBlock, i int) bool {
			out = append(out, b.Ints(0).At(i))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		index  string
		prefix []Value
		want   []int64
	}{
		{"", nil, []int64{10, 15, 20, 25, 30}},
		{"", []Value{Int(25)}, []int64{25}},
		{"t_g", []Value{Int(1)}, []int64{10, 20, 25, 15}},
		{"t_gh", []Value{Int(1)}, []int64{20, 10, 15, 25}},
		{"t_gh", []Value{Int(1), Int(4)}, []int64{25}},
		{"t_gh", nil, []int64{20, 10, 30, 15, 25}},
		{"t_g", []Value{Int(9)}, nil},
	} {
		if got := keys(c.index, c.prefix...); !slices.Equal(got, c.want) {
			t.Errorf("Lookup(%q, %v) visits keys %v, want %v", c.index, c.prefix, got, c.want)
		}
	}
	n := 0
	tab.Lookup("", nil, func(*ColumnBlock, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("a Lookup told to stop after 2 rows visited %d", n)
	}
}

// TestLookupRowsShareASlab: rows built through one slab are carved from
// it, one allocation per slab, and each is its caller's to keep.
func TestLookupRowsShareASlab(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for i := range 10 {
		if _, err := db.Insert("person", Row{Int(int64(i)), Str("p"), Int(int64(i)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := db.Table("person")
	var rows []Row
	var slab []Value
	allocs := testing.AllocsPerRun(1, func() {
		rows, slab = rows[:0], nil
		tab.Lookup("", nil, func(b *ColumnBlock, i int) bool {
			rows = append(rows, b.Row(i, &slab))
			return true
		})
	})
	if len(rows) != 10 || allocs > 4 {
		t.Fatalf("%d rows in %.0f allocations, want 10 rows from one slab", len(rows), allocs)
	}
	rows[0] = append(rows[0], Str("appended")) // an append to a row does not reach the next
	for i, r := range rows {
		if r[0].Int64() != int64(i) || r[2].Int64() != int64(i) || !r[3].IsNull() {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}
