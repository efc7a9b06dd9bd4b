package reldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func personSchema() *Schema {
	return &Schema{
		Name: "person",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "name", Type: KindString},
			{Name: "age", Type: KindInt, Nullable: true},
			{Name: "score", Type: KindFloat, Nullable: true},
		},
		PrimaryKey: []string{"id"},
		Indexes: []IndexSpec{
			{Name: "person_by_name", Columns: []string{"name"}},
		},
	}
}

func mustCreate(t *testing.T, db *DB, s *Schema) {
	t.Helper()
	if err := db.CreateTable(s); err != nil {
		t.Fatalf("CreateTable(%s): %v", s.Name, err)
	}
}

func TestSchemaValidate(t *testing.T) {
	good := personSchema()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{},          // no name
		{Name: "t"}, // no columns
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt}, {Name: "a", Type: KindInt}}, PrimaryKey: []string{"a"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt}}},                            // no PK
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt}}, PrimaryKey: []string{"b"}}, // missing PK col
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt, Nullable: true}}, PrimaryKey: []string{"a"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Kind(99)}}, PrimaryKey: []string{"a"}},
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt}}, PrimaryKey: []string{"a"},
			Indexes: []IndexSpec{{Name: "i", Columns: []string{"zzz"}}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: KindInt}}, PrimaryKey: []string{"a"},
			ForeignKeys: []ForeignKey{{Column: "zzz", RefTable: "x", RefColumn: "y"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestInsertAndGetByPK(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	id, err := db.Insert("person", Row{Int(1), Str("ada"), Int(36), Float(9.5)})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	row, gotID, ok := tab.GetByPK(Int(1))
	if !ok || gotID != id {
		t.Fatalf("GetByPK: ok=%v id=%d", ok, gotID)
	}
	if row[1].Text() != "ada" || row[2].Int64() != 36 {
		t.Errorf("row = %v", row)
	}
}

func TestInsertAutoID(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	id1, err := db.Insert("person", Row{Null(), Str("a"), Null(), Null()})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := db.Insert("person", Row{Null(), Str("b"), Null(), Null()})
	if id2 <= id1 {
		t.Errorf("auto IDs not increasing: %d then %d", id1, id2)
	}
	tab, _ := db.Table("person")
	row, _, ok := tab.GetByPK(Int(id1))
	if !ok || row[0].Int64() != id1 {
		t.Errorf("auto ID not stored in PK column: %v", row)
	}
}

func TestInsertExplicitIDAdvancesSequence(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	if _, err := db.Insert("person", Row{Int(100), Str("x"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert("person", Row{Null(), Str("y"), Null(), Null()})
	if err != nil {
		t.Fatal(err)
	}
	if id <= 100 {
		t.Errorf("auto ID %d should exceed explicit 100", id)
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	if _, err := db.Insert("person", Row{Int(1), Str("a"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("person", Row{Int(1), Str("b"), Null(), Null()}); err == nil {
		t.Error("duplicate PK accepted")
	}
}

func TestInsertTypeErrors(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	cases := []Row{
		{Int(1), Int(5), Null(), Null()},       // wrong kind for name
		{Int(1), Str("a"), Str("old"), Null()}, // wrong kind for age
		{Int(1), Str("a")},                     // wrong arity
		{Int(1), Null(), Null(), Null()},       // NULL in NOT NULL column
	}
	for i, r := range cases {
		if _, err := db.Insert("person", r); err == nil {
			t.Errorf("case %d: bad row accepted", i)
		}
	}
}

func TestIntLiteralAcceptedInFloatColumn(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	if _, err := db.Insert("person", Row{Int(1), Str("a"), Null(), Int(7)}); err != nil {
		t.Fatalf("int into float column: %v", err)
	}
	tab, _ := db.Table("person")
	row, _, _ := tab.GetByPK(Int(1))
	if row[3].Kind() != KindFloat || row[3].Float64() != 7 {
		t.Errorf("score = %v", row[3])
	}
}

// TestUpdate: an update is one transaction that deletes a row and inserts
// its new image under the same key; the indexes follow it.
func TestUpdate(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	id, _ := db.Insert("person", Row{Int(1), Str("a"), Int(10), Null()})
	if _, err := update(db, "person", id, Row{Int(1), Str("b"), Int(11), Null()}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	row, _, _ := tab.GetByPK(Int(1))
	if row[1].Text() != "b" || row[2].Int64() != 11 {
		t.Errorf("row after update = %v", row)
	}
	// Index must follow the update.
	var names []string
	_ = Visit(tab, "person_by_name", []Value{Str("a")}, func(_ int64, r Row) bool {
		names = append(names, r[1].Text())
		return true
	})
	if len(names) != 0 {
		t.Errorf("old index entry survives: %v", names)
	}
	_ = Visit(tab, "person_by_name", []Value{Str("b")}, func(_ int64, r Row) bool {
		names = append(names, r[1].Text())
		return true
	})
	if len(names) != 1 {
		t.Errorf("new index entry missing: %v", names)
	}
}

// TestUpdatePKChange: an update may move a row to a free key, not to one
// another row holds.
func TestUpdatePKChange(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	id, _ := db.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	db.Insert("person", Row{Int(2), Str("b"), Null(), Null()})
	// Changing PK to an occupied value must fail.
	if _, err := update(db, "person", id, Row{Int(2), Str("a"), Null(), Null()}); err == nil {
		t.Error("PK collision on update accepted")
	}
	// Changing PK to a free value must work.
	if _, err := update(db, "person", id, Row{Int(3), Str("a"), Null(), Null()}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	if _, _, ok := tab.GetByPK(Int(1)); ok {
		t.Error("old PK still resolves")
	}
	if _, _, ok := tab.GetByPK(Int(3)); !ok {
		t.Error("new PK does not resolve")
	}
}

func TestDelete(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	id, _ := db.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	if err := db.Delete("person", id); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	if tab.Len() != 0 {
		t.Error("row survives delete")
	}
	if err := db.Delete("person", id); err == nil {
		t.Error("double delete accepted")
	}
	// Index entry must be gone.
	count := 0
	_ = Visit(tab, "person_by_name", []Value{Str("a")}, func(int64, Row) bool {
		count++
		return true
	})
	if count != 0 {
		t.Error("index entry survives delete")
	}
}

func TestScanOrderedByPK(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for _, id := range []int64{5, 3, 9, 1, 7} {
		db.Insert("person", Row{Int(id), Str(fmt.Sprintf("p%d", id)), Null(), Null()})
	}
	tab, _ := db.Table("person")
	var got []int64
	Visit(tab, "", nil, func(_ int64, r Row) bool {
		got = append(got, r[0].Int64())
		return true
	})
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

func TestIndexScanNonUnique(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for i := 0; i < 10; i++ {
		name := "even"
		if i%2 == 1 {
			name = "odd"
		}
		db.Insert("person", Row{Int(int64(i)), Str(name), Null(), Null()})
	}
	tab, _ := db.Table("person")
	count := 0
	if err := Visit(tab, "person_by_name", []Value{Str("even")}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("found %d even rows, want 5", count)
	}
}

func TestIndexScanEmptyPrefixVisitsAll(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for i := 0; i < 4; i++ {
		db.Insert("person", Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Null(), Null()})
	}
	tab, _ := db.Table("person")
	count := 0
	if err := Visit(tab, "person_by_name", nil, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("visited %d, want 4", count)
	}
}

// TestUniqueIndexViolation: blocks keep no unique index — the names
// directory, above the engine, keeps names unique — so the engine never
// judges a violation: creating a unique index, with a table or after it,
// is refused, and so is the open of a directory whose log declares one.
func TestUniqueIndexViolation(t *testing.T) {
	schema := &Schema{
		Name: "u",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "email", Type: KindString},
		},
		PrimaryKey: []string{"id"},
		Indexes:    []IndexSpec{{Name: "u_email", Columns: []string{"email"}, Unique: true}},
	}
	db := newTestMem(t)
	if err := db.CreateTable(schema); err == nil {
		t.Fatal("a table with a unique index was created")
	}
	plain := schema.Clone()
	plain.Indexes = nil
	mustCreate(t, db, plain)
	if err := db.CreateIndex("u", schema.Indexes[0]); err == nil {
		t.Fatal("a unique index was created")
	}

	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	logGroup(t, fe, &mutation{op: opCreateTable, schema: schema})
	fe.Close()
	if _, err := OpenFile(dir); err == nil || !strings.Contains(err.Error(), "unique index") {
		t.Fatalf("opening a log that declares a unique index: %v", err)
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	pet := &Schema{
		Name: "pet",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "owner", Type: KindInt, Nullable: true},
		},
		PrimaryKey:  []string{"id"},
		ForeignKeys: []ForeignKey{{Column: "owner", RefTable: "person", RefColumn: "id"}},
	}
	mustCreate(t, db, pet)
	db.Insert("person", Row{Int(1), Str("ada"), Null(), Null()})

	if _, err := db.Insert("pet", Row{Int(1), Int(1)}); err != nil {
		t.Fatalf("valid FK rejected: %v", err)
	}
	if _, err := db.Insert("pet", Row{Int(2), Int(99)}); err == nil {
		t.Error("dangling FK accepted")
	}
	// NULL FK is allowed for nullable columns.
	if _, err := db.Insert("pet", Row{Int(3), Null()}); err != nil {
		t.Errorf("NULL FK rejected: %v", err)
	}

	// One transaction inserting owners and pets: each pet's owner is
	// matched by the transaction's own rows — consecutive keys or not —
	// or by a published one, whatever order the pets name them in; a
	// value between or beside the transaction's keys that no row holds
	// refuses the commit.
	for i, c := range []struct {
		people, owners []int64
		ok             bool
	}{
		{[]int64{10, 12, 14}, []int64{14, 1, 12, 10, 12}, true},
		{[]int64{20, 22}, []int64{20, 21, 22}, false},
		{[]int64{30, 32}, []int64{32, 31, 30}, false},
		{[]int64{40, 41, 42}, []int64{40, 42, 1, 41}, true},
		{[]int64{50, 51, 52}, []int64{50, 53}, false},
		{[]int64{60, 61}, []int64{59, 61}, false},
	} {
		tx := db.Begin()
		for _, id := range c.people {
			if _, err := tx.Insert("person", Row{Int(id), Str("p"), Null(), Null()}); err != nil {
				t.Fatal(err)
			}
		}
		for k, owner := range c.owners {
			if _, err := tx.Insert("pet", Row{Int(int64(100*(i+1) + k)), Int(owner)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); (err == nil) != c.ok {
			t.Errorf("people %v, pets owned by %v: commit error %v, want ok=%v", c.people, c.owners, err, c.ok)
		}
		if !c.ok {
			tx.Rollback()
		}
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for i := 0; i < 20; i++ {
		db.Insert("person", Row{Int(int64(i)), Str("x"), Int(int64(i % 3)), Null()})
	}
	if err := db.CreateIndex("person", IndexSpec{Name: "person_by_age", Columns: []string{"age"}}); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	count := 0
	if err := Visit(tab, "person_by_age", []Value{Int(1)}, func(int64, Row) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("backfilled index found %d, want 7", count)
	}
}

func TestTableNamesSorted(t *testing.T) {
	db := newTestMem(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		mustCreate(t, db, &Schema{
			Name:       name,
			Columns:    []Column{{Name: "id", Type: KindInt}},
			PrimaryKey: []string{"id"},
		})
	}
	got := strings.Join(db.TableNames(), ",")
	if got != "alpha,mid,zeta" {
		t.Errorf("TableNames = %s", got)
	}
}

func TestStats(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	db.Insert("person", Row{Int(1), Str("abc"), Int(3), Float(1)})
	s := db.Stats()
	if s.Tables != 1 || s.Rows != 1 {
		t.Errorf("Stats = %+v", s)
	}
	if s.DataBytes <= 0 {
		t.Error("DataBytes should be positive")
	}
	ts := s.PerTable["person"]
	if ts.Rows != 1 || ts.Indexes != 1 {
		t.Errorf("per-table stats = %+v", ts)
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	for i := 0; i < 100; i++ {
		db.Insert("person", Row{Int(int64(i)), Str("x"), Null(), Null()})
	}
	tab, _ := db.Table("person")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				Visit(tab, "", nil, func(int64, Row) bool { n++; return true })
				if n < 100 {
					t.Errorf("scan saw %d rows, want >= 100", n)
					return
				}
			}
		}()
	}
	for i := 100; i < 300; i++ {
		if _, err := db.Insert("person", Row{Int(int64(i)), Str("y"), Null(), Null()}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if tab.Len() != 300 {
		t.Errorf("final Len = %d, want 300", tab.Len())
	}
}

func TestTxCommit(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	tx := db.Begin()
	id, err := tx.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	if _, ok := tab.Get(id); !ok {
		t.Error("committed row missing")
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Errorf("second commit = %v, want ErrTxDone", err)
	}
}

func TestTxRollbackInsert(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	tx := db.Begin()
	tx.Insert("person", Row{Int(1), Str("a"), Null(), Null()})
	tx.Insert("person", Row{Int(2), Str("b"), Null(), Null()})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("person")
	if tab.Len() != 0 {
		t.Errorf("rows survive rollback: %d", tab.Len())
	}
}

// TestTxRowsInvisibleUntilCommit: in memory or in a directory, whatever
// the table's shape, no read — Len, Get, GetByPK, Scan — sees a row of an
// open transaction, and every read sees all of them once it commits.
func TestTxRowsInvisibleUntilCommit(t *testing.T) {
	hot := hotSchemas()[3] // focus
	tables := []string{"person", hot.Name}
	rowFor := func(table string, i int64) Row {
		if table == hot.Name {
			return Row{Int(i), Str("primary"), Str(fmt.Sprintf("primary:%d", i))}
		}
		return Row{Int(i), Str(fmt.Sprintf("n%d", i)), Null(), Null()}
	}
	for _, eng := range []*DB{NewMem(), openTestEngine(t, t.TempDir())} {
		for _, schema := range []*Schema{personSchema(), hot} {
			mustCreate(t, eng, schema)
		}
		tx := eng.Begin()
		ids := map[string][]int64{}
		for _, table := range tables {
			for i := int64(1); i <= 5; i++ {
				id, err := tx.Insert(table, rowFor(table, i))
				if err != nil {
					t.Fatal(err)
				}
				ids[table] = append(ids[table], id)
			}
		}
		// reads counts what every read of the table finds: 16 for five rows.
		reads := func(table string) int {
			tab, _ := eng.Table(table)
			n := tab.Len()
			Visit(tab, "", nil, func(int64, Row) bool { n++; return true })
			for _, id := range ids[table] {
				if _, ok := tab.Get(id); ok {
					n++
				}
			}
			if _, _, ok := tab.GetByPK(Int(3)); ok {
				n++
			}
			return n
		}
		for _, table := range tables {
			if n := reads(table); n != 0 {
				t.Fatalf("%s: %s: reads found an open transaction's rows %d times", eng.Kind(), table, n)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, table := range tables {
			if n := reads(table); n != 16 {
				t.Fatalf("%s: %s: reads found the committed rows %d times, want 16", eng.Kind(), table, n)
			}
		}
		eng.Close()
	}
}

func TestTxOperationsAfterDone(t *testing.T) {
	db := newTestMem(t)
	mustCreate(t, db, personSchema())
	tx := db.Begin()
	tx.Commit()
	if _, err := tx.Insert("person", Row{Int(1), Str("a"), Null(), Null()}); err != ErrTxDone {
		t.Errorf("Insert after commit = %v", err)
	}
	if err := tx.Rollback(); err != ErrTxDone {
		t.Errorf("Rollback after commit = %v", err)
	}
}

func TestSchemaDDLRendersKeysAndIndexes(t *testing.T) {
	s := personSchema()
	s.ForeignKeys = []ForeignKey{{Column: "age", RefTable: "ages", RefColumn: "id"}}
	ddl := s.DDL()
	for _, want := range []string{
		"CREATE TABLE person",
		"id INTEGER NOT NULL",
		"PRIMARY KEY (id)",
		"FOREIGN KEY (age) REFERENCES ages (id)",
		"CREATE INDEX person_by_name ON person (name)",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}
