package reldb

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name     string
	Type     Kind
	Nullable bool
}

// ForeignKey declares that the values in Column must appear in the
// referenced table's referenced column (or be NULL if the column is
// nullable). Foreign keys are checked on insert and update.
type ForeignKey struct {
	Column    string // local column name
	RefTable  string
	RefColumn string
}

// IndexSpec declares a secondary index over one or more columns.
type IndexSpec struct {
	Name    string
	Columns []string
	Unique  bool
}

// Schema declares a table: its columns, primary key, foreign keys, and
// secondary indexes. The primary key is mandatory and unique.
type Schema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string
	ForeignKeys []ForeignKey
	Indexes     []IndexSpec
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the schema for internal consistency.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("reldb: schema has no name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("reldb: table %q has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("reldb: table %q has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("reldb: table %q: duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case KindInt, KindFloat, KindString, KindBool:
		default:
			return fmt.Errorf("reldb: table %q column %q: invalid type %v", s.Name, c.Name, c.Type)
		}
	}
	if len(s.PrimaryKey) == 0 {
		return fmt.Errorf("reldb: table %q has no primary key", s.Name)
	}
	for _, pk := range s.PrimaryKey {
		i := s.ColumnIndex(pk)
		if i < 0 {
			return fmt.Errorf("reldb: table %q: primary key column %q not found", s.Name, pk)
		}
		if s.Columns[i].Nullable {
			return fmt.Errorf("reldb: table %q: primary key column %q must not be nullable", s.Name, pk)
		}
	}
	for _, fk := range s.ForeignKeys {
		if s.ColumnIndex(fk.Column) < 0 {
			return fmt.Errorf("reldb: table %q: foreign key column %q not found", s.Name, fk.Column)
		}
		if fk.RefTable == "" || fk.RefColumn == "" {
			return fmt.Errorf("reldb: table %q: foreign key on %q has empty reference", s.Name, fk.Column)
		}
	}
	idxNames := make(map[string]bool, len(s.Indexes))
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("reldb: table %q has an unnamed index", s.Name)
		}
		if idxNames[ix.Name] {
			return fmt.Errorf("reldb: table %q: duplicate index %q", s.Name, ix.Name)
		}
		idxNames[ix.Name] = true
		if len(ix.Columns) == 0 {
			return fmt.Errorf("reldb: table %q index %q has no columns", s.Name, ix.Name)
		}
		for _, col := range ix.Columns {
			if s.ColumnIndex(col) < 0 {
				return fmt.Errorf("reldb: table %q index %q: column %q not found", s.Name, ix.Name, col)
			}
		}
	}
	return nil
}

// CheckRow verifies that a row conforms to the schema's arity, types, and
// nullability.
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("reldb: table %q: row has %d values, want %d", s.Name, len(r), len(s.Columns))
	}
	for i, v := range r {
		w, err := s.checkValue(i, v)
		if err != nil {
			return err
		}
		r[i] = w
	}
	return nil
}

// checkValue checks one value against column i and returns it as the
// column stores it.
func (s *Schema) checkValue(i int, v Value) (Value, error) {
	c := &s.Columns[i]
	switch {
	case v.IsNull():
		if !c.Nullable {
			return v, fmt.Errorf("reldb: table %q: column %q is NOT NULL", s.Name, c.Name)
		}
	case v.Kind() == c.Type:
	case c.Type == KindFloat && v.Kind() == KindInt:
		// Permit exact int literals in float columns.
		return Float(float64(v.Int64())), nil
	default:
		return v, fmt.Errorf("reldb: table %q: column %q holds %v, got %v",
			s.Name, c.Name, c.Type, v.Kind())
	}
	return v, nil
}

// DDL renders the schema as a CREATE TABLE statement (plus CREATE INDEX
// statements). It is used to print the live Figure 1 schema; nothing in
// the repository parses it back.
func (s *Schema) DDL() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (\n", s.Name)
	for _, c := range s.Columns {
		fmt.Fprintf(&b, "  %s %s", c.Name, c.Type)
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
		b.WriteString(",\n")
	}
	fmt.Fprintf(&b, "  PRIMARY KEY (%s)", strings.Join(s.PrimaryKey, ", "))
	for _, fk := range s.ForeignKeys {
		fmt.Fprintf(&b, ",\n  FOREIGN KEY (%s) REFERENCES %s (%s)",
			fk.Column, fk.RefTable, fk.RefColumn)
	}
	b.WriteString("\n);\n")
	for _, ix := range s.Indexes {
		unique := ""
		if ix.Unique {
			unique = "UNIQUE "
		}
		fmt.Fprintf(&b, "CREATE %sINDEX %s ON %s (%s);\n",
			unique, ix.Name, s.Name, strings.Join(ix.Columns, ", "))
	}
	return b.String()
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Name: s.Name}
	c.Columns = append([]Column(nil), s.Columns...)
	c.PrimaryKey = append([]string(nil), s.PrimaryKey...)
	c.ForeignKeys = append([]ForeignKey(nil), s.ForeignKeys...)
	for _, ix := range s.Indexes {
		c.Indexes = append(c.Indexes, IndexSpec{
			Name:    ix.Name,
			Columns: append([]string(nil), ix.Columns...),
			Unique:  ix.Unique,
		})
	}
	return c
}
