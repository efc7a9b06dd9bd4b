package reldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func linkSchema() *Schema {
	return &Schema{
		Name: "link",
		Columns: []Column{
			{Name: "a", Type: KindInt},
			{Name: "b", Type: KindInt},
		},
		PrimaryKey: []string{"a", "b"},
	}
}

func TestPKScanPrefix(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, linkSchema())
	for a := 0; a < 5; a++ {
		for b := 0; b < 10; b++ {
			if _, err := db.Insert("link", Row{Int(int64(a)), Int(int64(b))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tab, _ := db.Table("link")
	var got []int64
	if err := Visit(tab, "", []Value{Int(3)}, func(_ int64, row Row) bool {
		if row[0].Int64() != 3 {
			t.Fatalf("prefix scan leaked a=%d", row[0].Int64())
		}
		got = append(got, row[1].Int64())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("scan found %d rows, want 10", len(got))
	}
	for i, b := range got {
		if b != int64(i) {
			t.Fatalf("order: position %d has b=%d", i, b)
		}
	}
	// Empty prefix visits everything in order.
	count := 0
	if err := Visit(tab, "", nil, func(int64, Row) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("full PK scan = %d", count)
	}
	// Too-long prefix errors.
	if err := Visit(tab, "", []Value{Int(1), Int(2), Int(3)}, nil); err == nil {
		t.Error("over-long prefix accepted")
	}
	// Missing prefix yields nothing.
	visited := false
	_ = Visit(tab, "", []Value{Int(99)}, func(int64, Row) bool { visited = true; return true })
	if visited {
		t.Error("missing prefix visited rows")
	}
}

func TestPKScanEarlyStop(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, linkSchema())
	for b := 0; b < 10; b++ {
		db.Insert("link", Row{Int(1), Int(int64(b))})
	}
	tab, _ := db.Table("link")
	n := 0
	_ = Visit(tab, "", []Value{Int(1)}, func(int64, Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

// viaBlockRecord logs row, whose columns are of the given kinds, as the
// one row of a block record and returns the row the record decodes to.
func viaBlockRecord(kinds []Kind, row Row) (Row, error) {
	schema := &Schema{Name: "r"}
	for i, k := range kinds {
		schema.Columns = append(schema.Columns, Column{Name: fmt.Sprint("c", i), Type: k, Nullable: true})
	}
	b := &ColumnBlock{}
	if err := b.reset(schema, 1); err != nil {
		return nil, err
	}
	b.appendRow(1, row)
	b.finish()
	m, err := decodeMutationPayload(encodeMutationPayload(&mutation{op: opInsertBlock, table: "r", block: b}))
	if err != nil {
		return nil, err
	}
	return m.block.Row(0, nil), nil
}

func TestWALRowRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, useNull bool) bool {
		row := Row{Int(i), Float(fl), Str(s), Bool(b)}
		if useNull {
			row[0] = Null()
		}
		got, err := viaBlockRecord([]Kind{KindInt, KindFloat, KindString, KindBool}, row)
		if err != nil || len(got) != len(row) {
			return false
		}
		for idx := range row {
			// NaN compares equal under Compare's total order.
			if Compare(got[idx], row[idx]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWALRowRoundTripSpecialFloats(t *testing.T) {
	row := Row{Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(0)}
	got, err := viaBlockRecord([]Kind{KindFloat, KindFloat, KindFloat, KindFloat}, row)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0].Float64()) || !math.IsInf(got[1].Float64(), 1) ||
		!math.IsInf(got[2].Float64(), -1) {
		t.Errorf("special floats = %v", got)
	}
}

// TestIndexConsistencyUnderRandomOps verifies that after a random
// insert/update/delete workload, every secondary-index scan returns
// exactly the rows a full scan filter would.
func TestIndexConsistencyUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := newTestMem(t)
	schema := &Schema{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "grp", Type: KindInt},
			{Name: "label", Type: KindString, Nullable: true},
		},
		PrimaryKey: []string{"id"},
		Indexes: []IndexSpec{
			{Name: "t_grp", Columns: []string{"grp"}},
			{Name: "t_grp_label", Columns: []string{"grp", "label"}},
		},
	}
	mustCreate(t, db, schema)
	live := map[int64]Row{}
	nextID := int64(1)
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // insert
			row := Row{Int(nextID), Int(int64(rng.Intn(8))), Str(fmt.Sprintf("L%d", rng.Intn(4)))}
			id, err := db.Insert("t", row)
			if err != nil {
				t.Fatal(err)
			}
			live[id] = row
			nextID++
		case 2: // update random live row
			for id := range live {
				row := Row{live[id][0], Int(int64(rng.Intn(8))), Str(fmt.Sprintf("L%d", rng.Intn(4)))}
				nid, err := update(db, "t", id, row)
				if err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				live[nid] = row
				break
			}
		case 3: // delete random live row
			for id := range live {
				if err := db.Delete("t", id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		}
	}
	tab, _ := db.Table("t")
	for grp := int64(0); grp < 8; grp++ {
		want := 0
		for _, row := range live {
			if row[1].Int64() == grp {
				want++
			}
		}
		got := 0
		if err := Visit(tab, "t_grp", []Value{Int(grp)}, func(_ int64, row Row) bool {
			if row[1].Int64() != grp {
				t.Fatalf("index leaked grp %d into scan for %d", row[1].Int64(), grp)
			}
			got++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("grp %d: index %d rows, truth %d", grp, got, want)
		}
		// Composite index agrees too.
		for l := 0; l < 4; l++ {
			label := fmt.Sprintf("L%d", l)
			want2 := 0
			for _, row := range live {
				if row[1].Int64() == grp && row[2].Text() == label {
					want2++
				}
			}
			got2 := 0
			if err := Visit(tab, "t_grp_label", []Value{Int(grp), Str(label)},
				func(int64, Row) bool { got2++; return true }); err != nil {
				t.Fatal(err)
			}
			if got2 != want2 {
				t.Fatalf("grp %d label %s: index %d, truth %d", grp, label, got2, want2)
			}
		}
	}
}

func TestIndexScanUnknownIndex(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	tab, _ := db.Table("person")
	if err := Visit(tab, "nosuch", nil, nil); err == nil {
		t.Error("unknown index accepted")
	}
	if err := Visit(tab, "person_by_name", []Value{Str("a"), Str("b")}, nil); err == nil {
		t.Error("over-long index prefix accepted")
	}
}

func TestDropIndex(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	db.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	if err := db.DropIndex("person", "person_by_name"); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	if tab.HasIndex("person_by_name") {
		t.Error("index survives drop")
	}
	if err := Visit(tab, "person_by_name", nil, nil); err == nil {
		t.Error("scan on dropped index accepted")
	}
	// Schema no longer lists it.
	for _, ix := range tab.Schema().Indexes {
		if ix.Name == "person_by_name" {
			t.Error("schema still lists dropped index")
		}
	}
	if err := db.DropIndex("person", "person_by_name"); err == nil {
		t.Error("double drop accepted")
	}
	if err := db.DropIndex("nosuch", "i"); err == nil {
		t.Error("drop on missing table accepted")
	}
	// Writes after the drop no longer maintain the index; re-creating
	// backfills correctly.
	db.Insert("person", Row{Int(2), Str("b"), Null(), Null()})
	if err := db.CreateIndex("person", IndexSpec{Name: "person_by_name", Columns: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := Visit(tab, "person_by_name", nil, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("recreated index holds %d rows, want 2", count)
	}
}

func TestDropIndexPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	fe.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	if err := fe.DropIndex("person", "person_by_name"); err != nil {
		t.Fatal(err)
	}
	fe.Close()

	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	if tab.HasIndex("person_by_name") {
		t.Error("dropped index reappeared after WAL replay")
	}
	// After a checkpoint too.
	if err := fe2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fe2.Close()
	fe3 := openTestEngine(t, dir)
	defer fe3.Close()
	tab3, _ := fe3.Table("person")
	if tab3.HasIndex("person_by_name") {
		t.Error("dropped index reappeared after snapshot reload")
	}
}

func TestFileEngineLargeRowSurvives(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	mustCreate(t, fe, personSchema())
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	if _, err := fe.Insert("person", Row{Int(1), Str(string(big)), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	fe2 := openTestEngine(t, dir)
	defer fe2.Close()
	tab, _ := fe2.Table("person")
	row, _, ok := tab.GetByPK(Int(1))
	if !ok || len(row[1].Text()) != len(big) {
		t.Errorf("large row lost: ok=%v len=%d", ok, len(row[1].Text()))
	}
}
