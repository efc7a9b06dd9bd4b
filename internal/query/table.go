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
	"slices"
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

	// Extra holds the cells of the added columns, indexed like
	// Table.ExtraColumns.
	Extra []string
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

// RetrieveCtx evaluates a pr-filter against the store and builds the
// result table (the GUI's "get data" step). The filter is evaluated once;
// rows are materialized from the matching IDs. A trace riding ctx records
// the filter-evaluation and materialization spans.
func RetrieveCtx(ctx context.Context, s *datastore.Store, prf core.PRFilter) (*Table, error) {
	ids, err := s.MatchingResultIDsCtx(ctx, prf)
	if err != nil {
		return nil, err
	}
	return NewTable(ctx, s, ids)
}

// NewTable materializes the given results — typically Resolution.IDs —
// into a table, one row per ID in the order given: a Page with no
// refinement and no limit.
func NewTable(ctx context.Context, s *datastore.Store, ids []int64) (*Table, error) {
	t, _, err := Page(ctx, s, ids, Refinement{}, 0, 0)
	return t, err
}

// Refinement is the second step of the two-step retrieval (§3.2): the
// view changes applied to retrieved results, in field order.
type Refinement struct {
	Metric        string   // keep only rows with this metric
	AddColumns    []string // free-resource columns, by resource type
	AddAttributes []string // attribute columns, each "type.attribute"
	SortBy        string
	Descending    bool
}

// Page is the two-step retrieval over ids: r is decided on the IDs, and
// only the rows [offset, offset+limit) of the result — every row from
// offset when limit is 0 — are materialized and given their added
// columns. total is how many rows r keeps. A metric filter or a sort
// reads every ID's result once, in bounded chunks: it drops the results
// of other metrics and computes the sort column's cell (Cell) for the
// rest, filling only that column, then orders the IDs stably as SortBy
// orders rows, so a page holds the rows the whole sorted table holds
// there.
func Page(ctx context.Context, s *datastore.Store, ids []int64, r Refinement, offset, limit int) (*Table, int, error) {
	t := &Table{store: s}
	cols, err := r.columns()
	if err != nil {
		return nil, 0, err
	}
	ids, keys, err := t.decide(ctx, ids, r, cols)
	if err != nil {
		return nil, 0, err
	}
	lo := min(max(offset, 0), len(ids))
	hi := len(ids)
	if limit > 0 {
		hi = min(lo+limit, hi)
	}
	page := ids[lo:hi]
	if keys != nil {
		page = make([]int64, hi-lo)
		for i, j := range order(keys, r.Descending)[lo:hi] {
			page[i] = ids[j]
		}
	}
	results, err := s.MaterializeResultsCtx(ctx, page)
	if err != nil {
		return nil, 0, err
	}
	// The rows and their added cells are each one block.
	rows := make([]Row, len(results))
	cells := make([]string, len(results)*len(cols))
	t.Rows = make([]*Row, len(results))
	for i, pr := range results {
		rows[i] = Row{
			ID:        page[i],
			Execution: pr.Execution,
			Metric:    pr.Metric,
			Tool:      pr.Tool,
			Units:     pr.Units,
			Value:     pr.Value,
			Resources: pr.AllResources(),
			Extra:     cells[i*len(cols) : i*len(cols) : (i+1)*len(cols)],
		}
		t.Rows[i] = &rows[i]
	}
	for _, c := range cols {
		if err := t.add(c); err != nil {
			return nil, 0, err
		}
	}
	return t, len(ids), nil
}

// decide applies r's metric filter to ids and computes the sort column's
// cell for every ID it keeps, through a scratch row. It reads nothing
// when there is no filter and no sort, or the sort column is one that no
// row has (all its cells are "" and a stable sort moves nothing); keys is
// nil when there is no sort.
func (t *Table) decide(ctx context.Context, ids []int64, r Refinement, cols []column) ([]int64, []cellKey, error) {
	by := r.SortBy
	var added *column
	if by != "" && !slices.Contains(FixedColumns, by) {
		if i := slices.IndexFunc(cols, func(c column) bool { return c.name == by }); i >= 0 {
			added = &cols[i]
		} else {
			by = ""
		}
	}
	if r.Metric == "" && by == "" {
		return ids, nil, nil
	}
	kept := ids
	if r.Metric != "" {
		kept = nil
	}
	var keys []cellKey
	row := &Row{}
	i := 0
	err := t.store.MaterializeStreamCtx(ctx, ids, datastore.MaterializeOptions{}, func(batch []*core.PerformanceResult) error {
		for _, pr := range batch {
			id := ids[i]
			i++
			if r.Metric != "" {
				if pr.Metric != r.Metric {
					continue
				}
				kept = append(kept, id)
			}
			if by == "" {
				continue
			}
			if added == nil {
				row.Execution, row.Metric, row.Tool, row.Units, row.Value = pr.Execution, pr.Metric, pr.Tool, pr.Units, pr.Value
				keys = append(keys, keyOf(t.Cell(row, by)))
				continue
			}
			row.Resources = pr.AllResources()
			cell, err := t.cell(row, *added)
			if err != nil {
				return err
			}
			keys = append(keys, keyOf(cell))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return kept, keys, nil
}

// cellKey is a cell as SortBy compares it: numerically when both cells
// parse as numbers, else as strings.
type cellKey struct {
	s   string
	f   float64
	num bool
}

func keyOf(cell string) cellKey {
	f, err := strconv.ParseFloat(cell, 64)
	return cellKey{s: cell, f: f, num: err == nil}
}

func (a cellKey) less(b cellKey) bool {
	if a.num && b.num {
		return a.f < b.f
	}
	return a.s < b.s
}

// order returns the indexes of keys in stable sorted order, the one sort
// behind Page and SortBy.
func order(keys []cellKey, descending bool) []int {
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		if descending {
			return keys[perm[j]].less(keys[perm[i]])
		}
		return keys[perm[i]].less(keys[perm[j]])
	})
	return perm
}

// column is one added display column: a free-resource column of a type,
// or with isAttr an attribute column of the resource of that type.
type column struct {
	name   string
	tp     core.TypePath
	attr   string
	isAttr bool
	full   bool // the resource's full name, not its base name
}

// columns parses a refinement's added columns in display order: the
// free-resource columns, then the attribute columns, a name once.
func (r Refinement) columns() ([]column, error) {
	var out []column
	add := func(c column) {
		if !slices.ContainsFunc(out, func(o column) bool { return o.name == c.name }) {
			out = append(out, c)
		}
	}
	for _, col := range r.AddColumns {
		add(column{name: col, tp: core.TypePath(col)})
	}
	for _, spec := range r.AddAttributes {
		i := strings.LastIndexByte(spec, '.')
		if i <= 0 {
			return nil, fmt.Errorf("bad attribute column %q, want type.attribute: %w", spec, datastore.ErrBadSpec)
		}
		add(column{name: spec, tp: core.TypePath(spec[:i]), attr: spec[i+1:], isAttr: true})
	}
	return out, nil
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
	return t.add(column{name: string(tp), tp: tp, full: fullNames})
}

// AddAttributeColumn adds a column holding the value of an attribute of
// each row's resource of the given type.
func (t *Table) AddAttributeColumn(tp core.TypePath, attr string) error {
	return t.add(column{name: string(tp) + "." + attr, tp: tp, attr: attr, isAttr: true})
}

// add appends a column's cell to every row, unless the table has a
// column of its name.
func (t *Table) add(c column) error {
	if slices.Contains(t.ExtraColumns, c.name) {
		return nil
	}
	for _, row := range t.Rows {
		cell, err := t.cell(row, c)
		if err != nil {
			return err
		}
		row.Extra = append(row.Extra, cell)
	}
	t.ExtraColumns = append(t.ExtraColumns, c.name)
	return nil
}

// cell is a row's cell of an added column, from its first context
// resource of the column's type: the resource's name, or its value of
// the attribute. A row without one, or whose resource lacks the
// attribute, gets "".
func (t *Table) cell(row *Row, c column) (string, error) {
	for _, r := range row.Resources {
		rt, err := t.resolveType(r)
		if err != nil {
			return "", err
		}
		if rt != c.tp {
			continue
		}
		switch {
		case c.isAttr:
			res, err := t.store.ResourceByName(r)
			if err != nil {
				return "", err
			}
			return res.Attributes[c.attr], nil
		case c.full:
			return string(r), nil
		}
		return r.BaseName(), nil
	}
	return "", nil
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
	}
	// A name the columns hold twice (a CSV header may) reads its last.
	for i := len(t.ExtraColumns) - 1; i >= 0; i-- {
		if t.ExtraColumns[i] == column {
			if i < len(row.Extra) {
				return row.Extra[i]
			}
			break
		}
	}
	return ""
}

// SortBy orders rows by a column, stably; numeric cells compare
// numerically.
func (t *Table) SortBy(column string, descending bool) {
	keys := make([]cellKey, len(t.Rows))
	for i, r := range t.Rows {
		keys[i] = keyOf(t.Cell(r, column))
	}
	rows := make([]*Row, len(t.Rows))
	for i, j := range order(keys, descending) {
		rows[i] = t.Rows[j]
	}
	t.Rows = rows
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
	sort.Slice(keys, func(i, j int) bool { return keyOf(keys[i]).less(keyOf(keys[j])) })
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
