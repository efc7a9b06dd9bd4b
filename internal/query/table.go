// Package query implements the GUI-facing query workflow of §3.2: retrieve
// performance results matching a pr-filter, then refine the view in a
// second step by adding columns for "free resources" — resources in the
// result contexts that the filter did not constrain and that differ across
// the retrieved results. The table supports sorting, value filtering, bar
// chart extraction, and CSV export/import for spreadsheet interchange.
package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
)

// Row is one retrieved performance result plus its display cells.
type Row struct {
	ID        int64
	Execution string
	Metric    string
	Tool      string
	Units     string
	Value     float64

	// Resources is the union of context resources for the result.
	Resources []core.ResourceName

	// Extra holds the values of added free-resource columns, keyed by
	// column name.
	Extra map[string]string
}

// Table is a retrieved result set in GUI tabular form (Figure 4).
type Table struct {
	store *datastore.Store
	// Columns fixed at retrieval: Execution, Metric, Value, Units, Tool.
	Rows []*Row
	// ExtraColumns lists added free-resource columns in display order.
	ExtraColumns []string
}

// FixedColumns is the initial column set of the main window table.
var FixedColumns = []string{"execution", "metric", "value", "units", "tool"}

// Retrieve evaluates a pr-filter against the store and builds the result
// table (the GUI's "get data" step). The filter is evaluated once; rows
// are materialized from the matching IDs.
func Retrieve(s *datastore.Store, prf core.PRFilter) (*Table, error) {
	return RetrieveCtx(context.Background(), s, prf)
}

// RetrieveCtx is Retrieve under a context, so a trace riding ctx records
// the filter-evaluation and materialization spans.
func RetrieveCtx(ctx context.Context, s *datastore.Store, prf core.PRFilter) (*Table, error) {
	ids, err := s.MatchingResultIDsCtx(ctx, prf)
	if err != nil {
		return nil, err
	}
	return NewTable(ctx, s, ids)
}

// NewTable materializes the given results — typically Resolution.IDs —
// into a table, one row per ID in the order given.
func NewTable(ctx context.Context, s *datastore.Store, ids []int64) (*Table, error) {
	results, err := s.MaterializeResultsCtx(ctx, ids)
	if err != nil {
		return nil, err
	}
	t := &Table{store: s}
	for i, pr := range results {
		row := &Row{
			ID:        ids[i],
			Execution: pr.Execution,
			Metric:    pr.Metric,
			Tool:      pr.Tool,
			Units:     pr.Units,
			Value:     pr.Value,
			Resources: pr.AllResources(),
			Extra:     make(map[string]string),
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Refinement is the second step of the two-step retrieval (§3.2): the
// view changes applied to a retrieved table, in field order.
type Refinement struct {
	Metric        string   // keep only rows with this metric
	AddColumns    []string // free-resource columns, by resource type
	AddAttributes []string // attribute columns, each "type.attribute"
	SortBy        string
	Descending    bool
}

// Refine applies a refinement; zero fields are skipped.
func (t *Table) Refine(r Refinement) error {
	if r.Metric != "" {
		t.FilterMetric(r.Metric)
	}
	for _, col := range r.AddColumns {
		if err := t.AddColumn(core.TypePath(col), false); err != nil {
			return err
		}
	}
	for _, spec := range r.AddAttributes {
		i := strings.LastIndexByte(spec, '.')
		if i <= 0 {
			return fmt.Errorf("bad attribute column %q, want type.attribute", spec)
		}
		if err := t.AddAttributeColumn(core.TypePath(spec[:i]), spec[i+1:]); err != nil {
			return err
		}
	}
	if r.SortBy != "" {
		t.SortBy(r.SortBy, r.Descending)
	}
	return nil
}

func (t *Table) resolveType(name core.ResourceName) (core.TypePath, error) {
	if t.store == nil {
		return "", fmt.Errorf("query: table is detached from a store (CSV import); free-resource columns are unavailable")
	}
	return t.store.TypeOfResource(name)
}

// FreeResourceColumn describes one candidate column from the "Add
// Columns" dialog: a resource type whose resource names are not identical
// across all retrieved results, plus the attribute names seen on those
// resources.
type FreeResourceColumn struct {
	Type       core.TypePath
	Distinct   int      // how many distinct resource names appear
	Attributes []string // attribute names available on these resources
}

// FreeResources analyzes the retrieved results and returns candidate
// columns. Per §3.2, types whose resource name is identical for all
// results are omitted (they carry no information for comparison).
func (t *Table) FreeResources() ([]FreeResourceColumn, error) {
	if t.store == nil {
		return nil, fmt.Errorf("query: table is detached from a store (CSV import); free-resource analysis is unavailable")
	}
	byType := make(map[core.TypePath]map[core.ResourceName]bool)
	covered := make(map[core.TypePath]int) // results having >= 1 resource of type
	for _, row := range t.Rows {
		seen := make(map[core.TypePath]bool)
		for _, r := range row.Resources {
			tp, err := t.resolveType(r)
			if err != nil {
				return nil, err
			}
			if byType[tp] == nil {
				byType[tp] = make(map[core.ResourceName]bool)
			}
			byType[tp][r] = true
			if !seen[tp] {
				seen[tp] = true
				covered[tp]++
			}
		}
	}
	var out []FreeResourceColumn
	for tp, names := range byType {
		// A type is interesting when results differ on it: either multiple
		// distinct names, or some results lack the type entirely.
		if len(names) <= 1 && covered[tp] == len(t.Rows) {
			continue
		}
		col := FreeResourceColumn{Type: tp, Distinct: len(names)}
		attrSet := make(map[string]bool)
		for name := range names {
			res, err := t.store.ResourceByName(name)
			if err != nil {
				return nil, err
			}
			for a := range res.Attributes {
				attrSet[a] = true
			}
		}
		for a := range attrSet {
			col.Attributes = append(col.Attributes, a)
		}
		sort.Strings(col.Attributes)
		out = append(out, col)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out, nil
}

// AddColumn adds a display column for a free-resource type. Each row's
// cell holds the name of its context resource with that type (the base
// name, or full name if requested); rows without such a resource get "".
func (t *Table) AddColumn(tp core.TypePath, fullNames bool) error {
	colName := string(tp)
	for _, existing := range t.ExtraColumns {
		if existing == colName {
			return nil
		}
	}
	for _, row := range t.Rows {
		for _, r := range row.Resources {
			rt, err := t.resolveType(r)
			if err != nil {
				return err
			}
			if rt == tp {
				if fullNames {
					row.Extra[colName] = string(r)
				} else {
					row.Extra[colName] = r.BaseName()
				}
				break
			}
		}
	}
	t.ExtraColumns = append(t.ExtraColumns, colName)
	return nil
}

// AddAttributeColumn adds a column holding the value of an attribute of
// each row's resource of the given type.
func (t *Table) AddAttributeColumn(tp core.TypePath, attr string) error {
	colName := string(tp) + "." + attr
	for _, existing := range t.ExtraColumns {
		if existing == colName {
			return nil
		}
	}
	for _, row := range t.Rows {
		for _, r := range row.Resources {
			rt, err := t.resolveType(r)
			if err != nil {
				return err
			}
			if rt != tp {
				continue
			}
			res, err := t.store.ResourceByName(r)
			if err != nil {
				return err
			}
			if v, ok := res.Attributes[attr]; ok {
				row.Extra[colName] = v
			}
			break
		}
	}
	t.ExtraColumns = append(t.ExtraColumns, colName)
	return nil
}

// Columns returns the full display column list.
func (t *Table) Columns() []string {
	return append(append([]string{}, FixedColumns...), t.ExtraColumns...)
}

// Cell renders the value of a column for a row.
func (t *Table) Cell(row *Row, column string) string {
	switch column {
	case "execution":
		return row.Execution
	case "metric":
		return row.Metric
	case "value":
		return strconv.FormatFloat(row.Value, 'g', -1, 64)
	case "units":
		return row.Units
	case "tool":
		return row.Tool
	default:
		return row.Extra[column]
	}
}

// SortBy orders rows by a column; numeric cells compare numerically.
func (t *Table) SortBy(column string, descending bool) {
	less := func(a, b *Row) bool {
		va, vb := t.Cell(a, column), t.Cell(b, column)
		if fa, errA := strconv.ParseFloat(va, 64); errA == nil {
			if fb, errB := strconv.ParseFloat(vb, 64); errB == nil {
				return fa < fb
			}
		}
		return va < vb
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		if descending {
			return less(t.Rows[j], t.Rows[i])
		}
		return less(t.Rows[i], t.Rows[j])
	})
}

// FilterRows keeps only rows for which keep returns true, returning the
// number removed (the GUI's "hide some of the entries").
func (t *Table) FilterRows(keep func(*Row) bool) int {
	kept := t.Rows[:0]
	removed := 0
	for _, r := range t.Rows {
		if keep(r) {
			kept = append(kept, r)
		} else {
			removed++
		}
	}
	t.Rows = kept
	return removed
}

// FilterEqual keeps rows whose column equals value.
func (t *Table) FilterEqual(column, value string) int {
	return t.FilterRows(func(r *Row) bool { return t.Cell(r, column) == value })
}

// FilterMetric keeps rows with the given metric.
func (t *Table) FilterMetric(metric string) int {
	return t.FilterEqual("metric", metric)
}

// Series extracts a named series for bar charts (Figure 5): one (label,
// value) point per row, labels drawn from labelColumn.
func (t *Table) Series(labelColumn string) ([]string, []float64) {
	labels := make([]string, len(t.Rows))
	values := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		labels[i] = t.Cell(r, labelColumn)
		values[i] = r.Value
	}
	return labels, values
}

// GroupBy aggregates row values grouped by a column with the given
// reducer ("min", "max", "avg", "sum", "count"). Keys are returned sorted.
func (t *Table) GroupBy(column, reducer string) ([]string, []float64, error) {
	groups := make(map[string][]float64)
	for _, r := range t.Rows {
		k := t.Cell(r, column)
		groups[k] = append(groups[k], r.Value)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		fi, errI := strconv.ParseFloat(keys[i], 64)
		fj, errJ := strconv.ParseFloat(keys[j], 64)
		if errI == nil && errJ == nil {
			return fi < fj
		}
		return keys[i] < keys[j]
	})
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vs := groups[k]
		switch reducer {
		case "min":
			m := vs[0]
			for _, v := range vs[1:] {
				if v < m {
					m = v
				}
			}
			vals[i] = m
		case "max":
			m := vs[0]
			for _, v := range vs[1:] {
				if v > m {
					m = v
				}
			}
			vals[i] = m
		case "avg":
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			vals[i] = sum / float64(len(vs))
		case "sum":
			sum := 0.0
			for _, v := range vs {
				sum += v
			}
			vals[i] = sum
		case "count":
			vals[i] = float64(len(vs))
		default:
			return nil, nil, fmt.Errorf("query: unknown reducer %q", reducer)
		}
	}
	return keys, vals, nil
}
