package sqldb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"perftrack/internal/reldb"
)

// testDB is the door these tests query through: Parse, then Execute over
// a source that streams an engine's tables as the planner's sources do,
// through one reused row buffer that it poisons after every yield. A row
// the executor keeps without copying it shows up as poison in a result.
type testDB struct{ eng *reldb.DB }

// poison overwrites every cell of a yielded row once yield returns.
var poison = reldb.Str("\x00poisoned: the executor kept a yielded row")

func (db testDB) Query(q string) (*Result, error) {
	sel, err := Parse(q)
	if err != nil {
		return nil, err
	}
	return Execute(context.Background(), sel, db.source)
}

func (db testDB) source(name string) ([]string, func(func(reldb.Row) error) error, bool) {
	tab, ok := db.eng.Table(name)
	if !ok {
		return nil, nil, false
	}
	var cols []string
	for _, c := range tab.Schema().Columns {
		cols = append(cols, c.Name)
	}
	return cols, func(yield func(reldb.Row) error) error {
		buf := make([]reldb.Value, len(cols))
		var err error
		lerr := tab.Lookup("", nil, func(b *reldb.ColumnBlock, i int) bool {
			slab := buf
			err = yield(b.Row(i, &slab))
			for c := range buf {
				buf[c] = poison
			}
			return err == nil
		})
		if lerr != nil {
			return lerr
		}
		return err
	}, true
}

// mkTable builds one fixture table through the engine: columns are
// "name TYPE" (nullable) or "name TYPE!" (NOT NULL), the first column is
// the primary key, and each index covers one column.
func mkTable(t testing.TB, eng *reldb.DB, name string, columns, indexes []string, rows ...reldb.Row) {
	t.Helper()
	kinds := map[string]reldb.Kind{"INTEGER": reldb.KindInt, "REAL": reldb.KindFloat, "TEXT": reldb.KindString}
	schema := &reldb.Schema{Name: name}
	for i, c := range columns {
		col, typ, _ := strings.Cut(c, " ")
		notNull := strings.HasSuffix(typ, "!") || i == 0
		schema.Columns = append(schema.Columns, reldb.Column{
			Name: col, Type: kinds[strings.TrimSuffix(typ, "!")], Nullable: !notNull,
		})
	}
	schema.PrimaryKey = []string{schema.Columns[0].Name}
	for _, col := range indexes {
		schema.Indexes = append(schema.Indexes, reldb.IndexSpec{Name: name + "_" + col, Columns: []string{col}})
	}
	if err := eng.CreateTable(schema); err != nil {
		t.Fatalf("CreateTable(%s): %v", name, err)
	}
	for _, row := range rows {
		if _, err := eng.Insert(name, row); err != nil {
			t.Fatalf("Insert(%s, %v): %v", name, row, err)
		}
	}
}

var (
	null = reldb.Null()
	num  = reldb.Int
	flt  = reldb.Float
	str  = reldb.Str
)

var empColumns = []string{"id INTEGER", "name TEXT!", "dept TEXT", "salary REAL", "boss INTEGER"}

func testDBOn(t testing.TB, eng *reldb.DB) testDB {
	t.Cleanup(func() { eng.Close() })
	mkTable(t, eng, "emp", empColumns, []string{"dept"},
		reldb.Row{num(1), str("ada"), str("eng"), flt(120), null},
		reldb.Row{num(2), str("bob"), str("eng"), flt(100), num(1)},
		reldb.Row{num(3), str("carol"), str("ops"), flt(90), num(1)},
		reldb.Row{num(4), str("dave"), str("ops"), flt(80), num(3)},
		reldb.Row{num(5), str("eve"), null, flt(70), num(3)})
	return testDB{eng}
}

func newTestDB(t testing.TB) testDB { return testDBOn(t, reldb.NewMem()) }

// addDept adds the second table the join tests use.
func addDept(t *testing.T, db testDB) {
	mkTable(t, db.eng, "dept", []string{"code TEXT", "title TEXT"}, nil,
		reldb.Row{str("eng"), str("Engineering")},
		reldb.Row{str("ops"), str("Operations")})
}

func mustQuery(t *testing.T, db testDB, q string) *Result {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return r
}

func rowStrings(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSelectAll(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT * FROM emp")
	if len(r.Rows) != 5 || len(r.Columns) != 5 {
		t.Fatalf("rows=%d cols=%v", len(r.Rows), r.Columns)
	}
	if r.Columns[1] != "name" {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestSelectWherePrimaryKeyReturnsRow(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT name FROM emp WHERE id = 3")
	if len(r.Rows) != 1 || r.Rows[0][0].Text() != "carol" {
		t.Fatalf("got %v", rowStrings(r))
	}
	// Missing PK yields zero rows.
	r = mustQuery(t, db, "SELECT name FROM emp WHERE id = 99")
	if len(r.Rows) != 0 {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestSelectWhereIndexedColumnReturnsRows(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT name FROM emp WHERE dept = 'eng' ORDER BY name")
	got := rowStrings(r)
	if len(got) != 2 || got[0] != "ada" || got[1] != "bob" {
		t.Fatalf("got %v", got)
	}
}

func TestSelectComparisonsAndLogic(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT name FROM emp WHERE salary >= 90 AND salary < 120 ORDER BY name")
	got := rowStrings(r)
	if strings.Join(got, ",") != "bob,carol" {
		t.Errorf("got %v", got)
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE dept = 'ops' OR salary > 110 ORDER BY id")
	if strings.Join(rowStrings(r), ",") != "ada,carol,dave" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestSelectNullSemantics(t *testing.T) {
	db := newTestDB(t)
	// dept = NULL never matches; IS NULL does.
	r := mustQuery(t, db, "SELECT name FROM emp WHERE dept = NULL")
	if len(r.Rows) != 0 {
		t.Errorf("= NULL matched %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE dept IS NULL")
	if len(r.Rows) != 1 || r.Rows[0][0].Text() != "eve" {
		t.Errorf("IS NULL got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE dept IS NOT NULL")
	if len(r.Rows) != 4 {
		t.Errorf("IS NOT NULL got %v", rowStrings(r))
	}
	// NOT (NULL comparison) is still unknown, not true.
	r = mustQuery(t, db, "SELECT name FROM emp WHERE NOT (dept = 'eng')")
	if len(r.Rows) != 2 { // carol, dave; eve's dept is NULL -> unknown
		t.Errorf("NOT over NULL got %v", rowStrings(r))
	}
}

func TestSelectInBetweenLike(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT name FROM emp WHERE id IN (1, 3, 5) ORDER BY id")
	if strings.Join(rowStrings(r), ",") != "ada,carol,eve" {
		t.Errorf("IN got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE salary BETWEEN 80 AND 100 ORDER BY id")
	if strings.Join(rowStrings(r), ",") != "bob,carol,dave" {
		t.Errorf("BETWEEN got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY id")
	if strings.Join(rowStrings(r), ",") != "ada,carol,dave" {
		t.Errorf("LIKE got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name FROM emp WHERE id NOT IN (1, 2, 3, 4)")
	if strings.Join(rowStrings(r), ",") != "eve" {
		t.Errorf("NOT IN got %v", rowStrings(r))
	}
}

func TestSelectArithmetic(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT salary * 2 + 1 FROM emp WHERE id = 4")
	if r.Rows[0][0].Float64() != 161 {
		t.Errorf("got %v", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT salary / 0 FROM emp WHERE id = 1")
	if !r.Rows[0][0].IsNull() {
		t.Errorf("division by zero = %v, want NULL", r.Rows[0][0])
	}
	r = mustQuery(t, db, "SELECT 7 / 2 FROM emp WHERE id = 1")
	if r.Rows[0][0].Float64() != 3.5 {
		t.Errorf("7/2 = %v", r.Rows[0][0])
	}
}

func TestSelectOrderByMulti(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT dept, name FROM emp WHERE dept IS NOT NULL ORDER BY dept DESC, name ASC")
	got := rowStrings(r)
	want := []string{"ops|carol", "ops|dave", "eng|ada", "eng|bob"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
}

func TestSelectOrderByPositionAndAlias(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT name AS n, salary FROM emp ORDER BY 2 DESC LIMIT 1")
	if r.Rows[0][0].Text() != "ada" {
		t.Errorf("got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT name AS n FROM emp ORDER BY n DESC LIMIT 1")
	if r.Rows[0][0].Text() != "eve" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestSelectLimitOffset(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2")
	if strings.Join(rowStrings(r), ",") != "3,4" {
		t.Errorf("got %v", rowStrings(r))
	}
	r = mustQuery(t, db, "SELECT id FROM emp ORDER BY id OFFSET 10")
	if len(r.Rows) != 0 {
		t.Errorf("offset past end got %v", rowStrings(r))
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL ORDER BY dept")
	if strings.Join(rowStrings(r), ",") != "eng,ops" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestAggregatesWholeTable(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT COUNT(*), COUNT(dept), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp")
	row := r.Rows[0]
	if row[0].Int64() != 5 || row[1].Int64() != 4 {
		t.Errorf("counts = %v, %v", row[0], row[1])
	}
	if row[2].Float64() != 460 || row[3].Float64() != 92 {
		t.Errorf("sum/avg = %v, %v", row[2], row[3])
	}
	if row[4].Float64() != 70 || row[5].Float64() != 120 {
		t.Errorf("min/max = %v, %v", row[4], row[5])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := testDB{reldb.NewMem()}
	mkTable(t, db.eng, "emp", empColumns, nil)
	r := mustQuery(t, db, "SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp")
	row := r.Rows[0]
	if row[0].Int64() != 0 {
		t.Errorf("COUNT(*) on empty = %v", row[0])
	}
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("SUM/MIN on empty = %v, %v", row[1], row[2])
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, `SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal
		FROM emp WHERE dept IS NOT NULL
		GROUP BY dept ORDER BY dept`)
	got := rowStrings(r)
	want := []string{"eng|2|110", "ops|2|85"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
}

func TestGroupByOrderByAggregate(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, `SELECT dept, SUM(salary) FROM emp WHERE dept IS NOT NULL
		GROUP BY dept ORDER BY SUM(salary) DESC`)
	if r.Rows[0][0].Text() != "eng" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestHaving(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, `SELECT dept, COUNT(*) FROM emp WHERE dept IS NOT NULL
		GROUP BY dept HAVING AVG(salary) > 100 ORDER BY dept`)
	if len(r.Rows) != 1 || r.Rows[0][0].Text() != "eng" {
		t.Errorf("got %v", rowStrings(r))
	}
	// HAVING on a grouping column works too.
	r = mustQuery(t, db, `SELECT dept, SUM(salary) FROM emp WHERE dept IS NOT NULL
		GROUP BY dept HAVING dept = 'ops'`)
	if len(r.Rows) != 1 || r.Rows[0][1].Float64() != 170 {
		t.Errorf("got %v", rowStrings(r))
	}
	// HAVING excluding every group yields zero rows.
	r = mustQuery(t, db, "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 10")
	if len(r.Rows) != 0 {
		t.Errorf("got %v", rowStrings(r))
	}
	// HAVING without GROUP BY is rejected.
	if _, err := db.Query("SELECT COUNT(*) FROM emp HAVING COUNT(*) > 1"); err == nil {
		t.Error("HAVING without GROUP BY accepted")
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT COUNT(DISTINCT dept) FROM emp")
	if r.Rows[0][0].Int64() != 2 {
		t.Errorf("COUNT(DISTINCT dept) = %v", r.Rows[0][0])
	}
}

func TestAggregateArithmetic(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT MAX(salary) - MIN(salary) FROM emp")
	if r.Rows[0][0].Float64() != 50 {
		t.Errorf("range = %v", r.Rows[0][0])
	}
}

func TestInnerJoin(t *testing.T) {
	db := newTestDB(t)
	// Self join: employee with boss name.
	r := mustQuery(t, db, `SELECT e.name, b.name FROM emp e
		JOIN emp b ON e.boss = b.id ORDER BY e.id`)
	got := rowStrings(r)
	want := []string{"bob|ada", "carol|ada", "dave|carol", "eve|carol"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
	// The hash join must match what the ON condition's own comparison
	// matches: an integer key equals the float of the same value.
	r = mustQuery(t, db, `SELECT e.name, b.name FROM emp e
		JOIN emp b ON e.boss = b.id + 0.0 ORDER BY e.id`)
	if got := rowStrings(r); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("int = float join got %v", got)
	}
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, `SELECT e.name, b.name FROM emp e
		LEFT JOIN emp b ON e.boss = b.id ORDER BY e.id`)
	if len(r.Rows) != 5 {
		t.Fatalf("left join rows = %d", len(r.Rows))
	}
	if !r.Rows[0][1].IsNull() {
		t.Errorf("ada's boss should be NULL, got %v", r.Rows[0][1])
	}
}

func TestJoinSecondTable(t *testing.T) {
	db := newTestDB(t)
	addDept(t, db)
	r := mustQuery(t, db, `SELECT e.name, d.title FROM emp e
		JOIN dept d ON e.dept = d.code WHERE e.salary > 95 ORDER BY e.id`)
	got := rowStrings(r)
	want := []string{"ada|Engineering", "bob|Engineering"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	addDept(t, db)
	r := mustQuery(t, db, `SELECT e.name, b.name, d.title FROM emp e
		JOIN emp b ON e.boss = b.id
		JOIN dept d ON e.dept = d.code
		ORDER BY e.id`)
	if len(r.Rows) != 3 { // eve's dept is NULL, so she drops out
		t.Fatalf("got %v", rowStrings(r))
	}
	if r.Rows[0][2].Text() != "Engineering" {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestJoinGroupBy(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, `SELECT b.name, COUNT(*) FROM emp e
		JOIN emp b ON e.boss = b.id GROUP BY b.name ORDER BY b.name`)
	got := rowStrings(r)
	want := []string{"ada|2", "carol|2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("got %v", got)
	}
}

func TestQueryErrors(t *testing.T) {
	db := newTestDB(t)
	bad := []string{
		"SELECT nosuch FROM emp",
		"SELECT name FROM missing",
		"SELECT x.name FROM emp",
		"SELECT * FROM emp GROUP BY dept",
		"SELECT name FROM emp WHERE name + 1 = 2", // arithmetic on string
		"SELECT name FROM emp JOIN missing ON 1 = 1",
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	if _, err := db.Query("UPDATE emp SET dept = 'x'"); err == nil {
		t.Error("Query on UPDATE should fail")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("SELECT name FROM emp e JOIN emp b ON e.boss = b.id"); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestFormatTable(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT id, name FROM emp WHERE id <= 2 ORDER BY id")
	out := r.FormatTable()
	if !strings.Contains(out, "id") || !strings.Contains(out, "ada") || !strings.Contains(out, "---") {
		t.Errorf("FormatTable output:\n%s", out)
	}
}

func TestSQLOnFileEngine(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	mkTable(t, fe, "kv", []string{"k TEXT", "v INTEGER"}, nil,
		reldb.Row{str("a"), num(1)}, reldb.Row{str("b"), num(2)})
	fe.Close()

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	r := mustQuery(t, testDB{fe2}, "SELECT v FROM kv WHERE k = 'b'")
	if r.Rows[0][0].Int64() != 2 {
		t.Errorf("got %v", rowStrings(r))
	}
}

func TestSelectTableStarInJoin(t *testing.T) {
	db := newTestDB(t)
	r := mustQuery(t, db, "SELECT e.* FROM emp e JOIN emp b ON e.boss = b.id WHERE e.id = 2")
	if len(r.Columns) != 5 || r.Rows[0][1].Text() != "bob" {
		t.Errorf("got cols=%v rows=%v", r.Columns, rowStrings(r))
	}
}

func TestLargeScanAndAggregate(t *testing.T) {
	db := testDB{reldb.NewMem()}
	var rows []reldb.Row
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, reldb.Row{num(i), num(i % 10), flt(float64(i) + 0.5)})
	}
	mkTable(t, db.eng, "big", []string{"id INTEGER", "grp INTEGER", "v REAL"}, nil, rows...)
	r := mustQuery(t, db, "SELECT grp, COUNT(*) FROM big GROUP BY grp ORDER BY grp")
	if len(r.Rows) != 10 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1].Int64() != 100 {
			t.Errorf("group %v count %v", row[0], row[1])
		}
	}
}

// TestExecuteStopsWhenCancelled: the executor checks ctx every 1024 rows
// it scans and every 1024 pairs a join compares, so each statement stops
// with the context's error once it is cancelled.
func TestExecuteStopsWhenCancelled(t *testing.T) {
	src := func(string) ([]string, func(func(reldb.Row) error) error, bool) {
		return []string{"x"}, func(yield func(reldb.Row) error) error {
			for i := range 2048 {
				if err := yield(reldb.Row{reldb.Int(int64(i))}); err != nil {
					return err
				}
			}
			return nil
		}, true
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []string{
		"SELECT count(*) FROM t WHERE x >= 0",
		"SELECT count(*) FROM t a JOIN t b ON a.x = b.x",
		"SELECT count(*) FROM t a JOIN t b ON a.x < b.x - 5000",
	} {
		sel, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := Execute(ctx, sel, src); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: result %t, err %v; want context.Canceled", q, res != nil, err)
		}
	}
}
