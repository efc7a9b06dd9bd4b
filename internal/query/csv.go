package query

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// WriteCSV exports the table, including added columns, in a format
// suitable for spreadsheet import (§3.2/§4.1: "output a dataset of
// interest into a text file, input it into an OpenOffice spreadsheet").
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cols := t.Columns()
	if err := cw.Write(cols); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(cols))
		for i, c := range cols {
			rec[i] = t.Cell(row, c)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV imports a table previously written by WriteCSV ("store the data
// to files, read it back in").
func ReadCSV(r io.Reader) (*Table, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("query: CSV: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("query: CSV has no header")
	}
	return TableFromCells(recs[0], recs[1:])
}

// TableFromCells builds a table from rendered cells — a CSV file's, or a
// /v1/results response's — under a header that starts with FixedColumns.
// Cells are Table.Cell strings, so the values round-trip exactly. The
// result is detached from any store: free-resource analysis is
// unavailable, but sorting, filtering, grouping, charting and export work.
func TableFromCells(header []string, rows [][]string) (*Table, error) {
	if len(header) < len(FixedColumns) {
		return nil, fmt.Errorf("query: header has %d columns, need at least %d",
			len(header), len(FixedColumns))
	}
	for i, want := range FixedColumns {
		if header[i] != want {
			return nil, fmt.Errorf("query: column %d is %q, want %q", i, header[i], want)
		}
	}
	t := &Table{ExtraColumns: append([]string(nil), header[len(FixedColumns):]...)}
	for n, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("query: row %d has %d cells, want %d", n+1, len(rec), len(header))
		}
		v, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("query: row %d: bad value %q", n+1, rec[2])
		}
		t.Rows = append(t.Rows, &Row{
			Execution: rec[0],
			Metric:    rec[1],
			Value:     v,
			Units:     rec[3],
			Tool:      rec[4],
			Extra:     slices.Clone(rec[len(FixedColumns):]),
		})
	}
	return t, nil
}
