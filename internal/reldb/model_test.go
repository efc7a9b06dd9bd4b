package reldb

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refModel is the reference the engine's reads are judged against: each
// table a map of rows by row ID, kept by code that shares nothing with
// the engine's storage — no row set, no B-tree, no block, no log. It
// assigns row IDs as the engine does and refuses what the engine must
// refuse: a row the schema rejects, a duplicate primary key, a
// unique-index violation, a foreign key with no match.
type refModel struct {
	tables map[string]*refTable
}

type refTable struct {
	schema *Schema
	pkCols []int
	nextID int64
	rows   map[int64]Row
	counts map[string]*valueCounts // by column list: kept from its first use on
}

// valueCounts counts the rows that hold each encoded value of columns.
type valueCounts struct {
	columns []string
	n       map[string]int
}

func newRefModel() *refModel { return &refModel{tables: make(map[string]*refTable)} }

func (m *refModel) table(name string) (*refTable, error) {
	if t := m.tables[name]; t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("model: no table %q", name)
}

func (m *refModel) CreateTable(s *Schema) error {
	if m.tables[s.Name] != nil {
		return fmt.Errorf("model: table %q exists", s.Name)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	t := &refTable{schema: s.Clone(), nextID: 1, rows: make(map[int64]Row), counts: make(map[string]*valueCounts)}
	for _, pk := range s.PrimaryKey {
		t.pkCols = append(t.pkCols, s.ColumnIndex(pk))
	}
	m.tables[s.Name] = t
	return nil
}

func (m *refModel) CreateIndex(table string, spec IndexSpec) error {
	t, err := m.table(table)
	if err != nil {
		return err
	}
	if t.index(spec.Name) != nil {
		return fmt.Errorf("model: index %q exists", spec.Name)
	}
	if spec.Unique {
		seen := map[string]bool{}
		for id, row := range t.rows {
			key := t.indexKey(&spec, row, id)
			if seen[key] {
				return fmt.Errorf("model: unique index %q over duplicates", spec.Name)
			}
			seen[key] = true
		}
	}
	t.schema.Indexes = append(t.schema.Indexes, spec)
	return nil
}

func (m *refModel) DropIndex(table, index string) error {
	t, err := m.table(table)
	if err != nil {
		return err
	}
	for i, spec := range t.schema.Indexes {
		if spec.Name == index {
			t.schema.Indexes = slices.Delete(t.schema.Indexes, i, i+1)
			return nil
		}
	}
	return fmt.Errorf("model: no index %q", index)
}

func (m *refModel) Insert(table string, row Row) (int64, error) {
	tx := m.begin()
	id, err := tx.Insert(table, row)
	if err == nil {
		err = tx.Commit()
	}
	return id, err
}

func (m *refModel) Delete(table string, id int64) error {
	tx := m.begin()
	err := tx.Delete(table, id)
	if err == nil {
		err = tx.Commit()
	}
	return err
}

// get returns a copy of one row.
func (m *refModel) get(table string, id int64) Row {
	return m.tables[table].rows[id].Clone()
}

// dump renders every row of the named tables, "absent" for a table that
// does not exist: two states are the same state when their dumps are.
func (m *refModel) dump(tables []string) string {
	var b bytes.Buffer
	for _, name := range tables {
		t := m.tables[name]
		if t == nil {
			fmt.Fprintf(&b, "%s absent\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s\n", name)
		for _, r := range t.ordered() {
			fmt.Fprintf(&b, "  %d %s\n", r.id, r.row)
		}
	}
	return b.String()
}

// clone returns an independent copy of the model.
func (m *refModel) clone() *refModel {
	c := newRefModel()
	for name, t := range m.tables {
		ct := *t
		ct.schema = t.schema.Clone()
		ct.rows, ct.counts = make(map[int64]Row, len(t.rows)), make(map[string]*valueCounts)
		for id, row := range t.rows {
			ct.rows[id] = row
		}
		c.tables[name] = &ct
	}
	return c
}

type refRow struct {
	id  int64
	row Row
}

// refTx holds a transaction's rows and the row IDs it deletes, by table,
// until Commit.
type refTx struct {
	m    *refModel
	rows map[string][]refRow
	dels map[string]map[int64]bool
	done bool
}

func (m *refModel) begin() txWriter {
	return &refTx{m: m, rows: make(map[string][]refRow), dels: make(map[string]map[int64]bool)}
}

func (tx *refTx) Delete(table string, id int64) error {
	if tx.done {
		return ErrTxDone
	}
	if _, err := tx.m.table(table); err != nil {
		return err
	}
	if tx.dels[table] == nil {
		tx.dels[table] = make(map[int64]bool)
	}
	tx.dels[table][id] = true
	return nil
}

func (tx *refTx) Insert(table string, row Row) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	t, err := tx.m.table(table)
	if err != nil {
		return 0, err
	}
	row = row.Clone()
	if len(row) != len(t.schema.Columns) {
		return 0, fmt.Errorf("model: %d values for %d columns", len(row), len(t.schema.Columns))
	}
	intKey := len(t.pkCols) == 1 && t.schema.Columns[t.pkCols[0]].Type == KindInt
	auto := intKey && row[t.pkCols[0]].IsNull()
	if auto {
		row[t.pkCols[0]] = Int(0) // checked as the key it will be
	}
	if err := t.schema.CheckRow(row); err != nil {
		return 0, err
	}
	id := t.nextID
	t.nextID++
	if auto {
		row[t.pkCols[0]] = Int(id)
	} else if intKey {
		t.nextID = max(t.nextID, row[t.pkCols[0]].Int64()+1)
	}
	tx.rows[table] = append(tx.rows[table], refRow{id, row})
	return id, nil
}

// Commit applies the transaction's deletes and installs its rows, or
// does nothing: a row to delete that is not there, a key taken in the
// table (before the deletes) or twice in the transaction, or a foreign
// key that neither a published row nor one of the transaction's own
// matches, refuses it all and leaves the transaction open.
func (tx *refTx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	for name, ids := range tx.dels {
		for id := range ids {
			if tx.m.tables[name].rows[id] == nil {
				return fmt.Errorf("model: %s has no row %d", name, id)
			}
		}
	}
	own := map[string]map[string]bool{} // table.column → the encoded values the transaction's rows hold there
	holds := func(table, column string, v Value) bool {
		t := tx.m.tables[table]
		if t == nil {
			return false
		}
		key := string(EncodeKey(nil, v))
		if t.valueCounts([]string{column})[key] > 0 {
			return true
		}
		set := own[table+"."+column]
		if set == nil {
			set = map[string]bool{}
			for _, r := range tx.rows[table] {
				set[t.key(r.row, []string{column})] = true
			}
			own[table+"."+column] = set
		}
		return set[key]
	}
	for name, pending := range tx.rows {
		t := tx.m.tables[name]
		specs := append([]IndexSpec{{Name: "primary key", Columns: t.schema.PrimaryKey, Unique: true}}, t.schema.Indexes...)
		for _, spec := range specs {
			if !spec.Unique {
				continue
			}
			published, seen := t.valueCounts(spec.Columns), map[string]bool{}
			for _, r := range pending {
				key := t.key(r.row, spec.Columns)
				if published[key] > 0 || seen[key] {
					return fmt.Errorf("model: %s: %s violated by %s", name, spec.Name, r.row)
				}
				seen[key] = true
			}
		}
		for _, fk := range t.schema.ForeignKeys {
			ci := t.schema.ColumnIndex(fk.Column)
			for _, r := range pending {
				if v := r.row[ci]; !v.IsNull() && !holds(fk.RefTable, fk.RefColumn, v) {
					return fmt.Errorf("model: %s: %s=%s has no match", name, fk.Column, v)
				}
			}
		}
	}
	for name, ids := range tx.dels {
		t := tx.m.tables[name]
		for id := range ids {
			for _, c := range t.counts {
				c.n[t.key(t.rows[id], c.columns)]--
			}
			delete(t.rows, id)
		}
	}
	for name, pending := range tx.rows {
		t := tx.m.tables[name]
		for _, r := range pending {
			t.rows[r.id] = r.row
			for _, c := range t.counts {
				c.n[t.key(r.row, c.columns)]++
			}
		}
	}
	tx.done = true
	return nil
}

func (tx *refTx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	return nil
}

// --- reads ---

func (t *refTable) index(name string) *IndexSpec {
	for i := range t.schema.Indexes {
		if t.schema.Indexes[i].Name == name {
			return &t.schema.Indexes[i]
		}
	}
	return nil
}

// valueCounts returns how many published rows hold each encoded value of
// the columns.
func (t *refTable) valueCounts(columns []string) map[string]int {
	name := strings.Join(columns, ",")
	c := t.counts[name]
	if c == nil {
		c = &valueCounts{columns: columns, n: make(map[string]int)}
		for _, row := range t.rows {
			c.n[t.key(row, columns)]++
		}
		t.counts[name] = c
	}
	return c.n
}

// key encodes a row's values of the columns.
func (t *refTable) key(row Row, columns []string) string {
	return string(EncodeKey(nil, t.values(row, columns)...))
}

func (t *refTable) values(row Row, columns []string) []Value {
	vals := make([]Value, len(columns))
	for i, c := range columns {
		vals[i] = row[t.schema.ColumnIndex(c)]
	}
	return vals
}

// indexKey is the encoded key of a row in an index: its columns, then
// for an index that is not unique its row ID, which orders equal values.
func (t *refTable) indexKey(spec *IndexSpec, row Row, id int64) string {
	vals := t.values(row, spec.Columns)
	if !spec.Unique {
		vals = append(vals, Int(id))
	}
	return string(EncodeKey(nil, vals...))
}

// ordered returns the rows in primary key order.
func (t *refTable) ordered() []refRow {
	return t.byIndex(&IndexSpec{Columns: t.schema.PrimaryKey, Unique: true})
}

// byIndex returns the rows in the order of the index.
func (t *refTable) byIndex(spec *IndexSpec) []refRow {
	type keyed struct {
		key string
		refRow
	}
	rows := make([]keyed, 0, len(t.rows))
	for id, row := range t.rows {
		rows = append(rows, keyed{t.indexKey(spec, row, id), refRow{id, row}})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	out := make([]refRow, len(rows))
	for i, r := range rows {
		out[i] = r.refRow
	}
	return out
}

// filter returns the rows keep accepts, in order.
func filter(rows []refRow, keep func(Row) bool) []refRow {
	var out []refRow
	for _, r := range rows {
		if keep(r.row) {
			out = append(out, r)
		}
	}
	return out
}

// groups returns the rows by the encoding of their value in column ci,
// each group in the rows' order.
func groups(rows []refRow, ci int) map[string][]refRow {
	out := make(map[string][]refRow)
	for _, r := range rows {
		key := string(EncodeKey(nil, r.row[ci]))
		out[key] = append(out[key], r)
	}
	return out
}

// sameReads fails unless the table holds the model's rows, read every way
// a Table can be read, in the order the model says.
func sameReads(t *testing.T, label string, got *Table, want *refTable) {
	t.Helper()
	type visit struct {
		id  int64
		row string
	}
	collect := func(into *[]visit) func(int64, Row) bool {
		return func(id int64, row Row) bool {
			*into = append(*into, visit{id, row.String()})
			return true
		}
	}
	expect := func(rows []refRow) []visit {
		var out []visit
		for _, r := range rows {
			out = append(out, visit{r.id, r.row.String()})
		}
		return out
	}
	same := func(what string, read func(fn func(int64, Row) bool) error, w []visit) {
		t.Helper()
		var g []visit
		if err := read(collect(&g)); err != nil {
			t.Fatalf("%s: %s: %v", label, what, err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s differs:\n got %d rows %v\nwant %d rows %v", label, what, len(g), g[:min(len(g), 6)], len(w), w[:min(len(w), 6)])
		}
	}
	if got.Len() != len(want.rows) {
		t.Fatalf("%s: Len = %d, want %d", label, got.Len(), len(want.rows))
	}
	all := want.ordered()
	same("Scan", func(fn func(int64, Row) bool) error { got.Scan(fn); return nil }, expect(all))
	byFirst := groups(all, want.pkCols[0])
	for i, r := range all {
		g, gok := got.Get(r.id)
		if !gok || !rowsEqual(g, r.row) {
			t.Fatalf("%s: Get(%d) = %v, %v; want %v", label, r.id, g, gok, r.row)
		}
		pk := want.values(r.row, want.schema.PrimaryKey)
		g, gid, gok := got.GetByPK(pk...)
		if !gok || gid != r.id || !rowsEqual(g, r.row) {
			t.Fatalf("%s: GetByPK(%v) = %v, %d, %v; want %v, %d", label, pk, g, gid, gok, r.row, r.id)
		}
		if i%7 == 0 {
			first := pk[:1]
			same(fmt.Sprintf("PKScan(%v)", first), func(fn func(int64, Row) bool) error { return got.PKScan(first, fn) },
				expect(byFirst[string(EncodeKey(nil, first...))]))
		}
	}
	if _, ok := got.Get(1 << 40); ok {
		t.Fatalf("%s: Get of a row ID never assigned succeeded", label)
	}
	for _, spec := range want.schema.Indexes {
		spec := spec
		lead := spec.Columns[0]
		indexed := want.byIndex(&spec)
		same("IndexScan("+spec.Name+")", func(fn func(int64, Row) bool) error { return got.IndexScan(spec.Name, nil, fn) },
			expect(indexed))
		byLead := groups(indexed, want.schema.ColumnIndex(lead))
		seen := map[int64]bool{-1: true} // and a value no row holds
		for _, r := range all {
			seen[r.row[want.schema.ColumnIndex(lead)].Int64()] = true
		}
		for v := range seen {
			key := []Value{Int(v)}
			match := expect(byLead[string(EncodeKey(nil, key...))])
			same(fmt.Sprintf("IndexScan(%s, %d)", spec.Name, v), func(fn func(int64, Row) bool) error {
				return got.IndexScan(spec.Name, key, fn)
			}, match)
			if len(spec.Columns) > 1 {
				continue
			}
			// The projected scan reads the leading key column the same.
			var firsts []visit
			for _, m := range match {
				row := want.rows[m.id]
				firsts = append(firsts, visit{m.id, Row{row[want.pkCols[0]]}.String()})
			}
			same(fmt.Sprintf("IndexScanInt(%s, %d)", spec.Name, v), func(fn func(int64, Row) bool) error {
				return got.IndexScanInt(spec.Name, key, got.pkCols[0], func(id, first int64) bool { return fn(id, Row{Int(first)}) })
			}, firsts)
		}
	}
	// Gather by ID list (with holes) and the block source by range carry
	// the same rows in the same order as the model's.
	var ask []int64
	var gathered []refRow
	for id := int64(0); id <= want.nextID; id++ {
		ask = append(ask, id)
		if row := want.rows[id]; row != nil {
			gathered = append(gathered, refRow{id, row})
		}
	}
	blocks := func(read func(fn func(*ColumnBlock) error) error) func(func(int64, Row) bool) error {
		return func(fn func(int64, Row) bool) error {
			return read(func(b *ColumnBlock) error {
				for i, id := range Values(b.IDs()) {
					fn(id, b.row(i))
				}
				return nil
			})
		}
	}
	same("Gather", blocks(func(fn func(*ColumnBlock) error) error { return got.Gather(ask, fn) }), expect(gathered))
	if want.schema.Columns[want.pkCols[0]].Type == KindInt {
		same("Blocks", blocks(func(fn func(*ColumnBlock) error) error {
			scan, err := got.Blocks(math.MinInt64, math.MaxInt64)
			if err != nil {
				return err
			}
			return scan.Each(fn)
		}), expect(all))
	}
}

// writer is what a test writes through: the engine, or the model.
type writer interface {
	inserter
	CreateTable(schema *Schema) error
	CreateIndex(table string, spec IndexSpec) error
	DropIndex(table, index string) error
	Delete(table string, id int64) error
	begin() txWriter
}

// txWriter is a transaction on a writer.
type txWriter interface {
	inserter
	Delete(table string, id int64) error
	Commit() error
	Rollback() error
}

// inserter is a writer, or a transaction on one.
type inserter interface {
	Insert(table string, row Row) (int64, error)
}

func (db *DB) begin() txWriter { return db.Begin() }

// dumpDB renders the engine's rows of the named tables as refModel.dump
// renders the model's.
func dumpDB(db *DB, tables []string) string {
	var b bytes.Buffer
	for _, name := range tables {
		t, ok := db.Table(name)
		if !ok {
			fmt.Fprintf(&b, "%s absent\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s\n", name)
		t.Scan(func(id int64, row Row) bool {
			fmt.Fprintf(&b, "  %d %s\n", id, row)
			return true
		})
	}
	return b.String()
}
