package datastore

import (
	"errors"
	"fmt"
	"sort"

	"perftrack/internal/core"
	"perftrack/internal/reldb"
)

// ExecutionDetail is the §3.3 "details of individual executions" report.
type ExecutionDetail struct {
	Name        string
	Application string
	Attributes  map[string]string // attributes of the execution resource
	Results     int
	Metrics     []string
	Tools       []string
	Resources   int // execution-scoped resources
}

// ExecutionDetail assembles the report for one execution.
func (s *Store) ExecutionDetail(name string) (*ExecutionDetail, error) {
	execID, ok := s.names.id(dictExecution, name)
	if !ok {
		return nil, fmt.Errorf("datastore: unknown execution %q: %w", name, ErrNotFound)
	}
	appID, _ := s.names.ref(dictExecution, execID)
	d := &ExecutionDetail{
		Name:        name,
		Application: s.names.dict(dictApplication).Name(appID),
		Attributes:  map[string]string{},
	}

	// Execution-resource attributes, when a resource named /<exec> exists.
	if res, err := s.ResourceByName(core.ResourceName("/" + name)); err == nil {
		d.Attributes = res.Attributes
	}

	// Results, metrics, tools.
	prTab, _ := s.eng.Table("performance_result")
	metricSet := map[int64]bool{}
	toolSet := map[int64]bool{}
	if err := prTab.Lookup("performance_result_exec", []reldb.Value{reldb.Int(execID)},
		func(b *reldb.ColumnBlock, i int) bool {
			d.Results++
			metricSet[b.Ints(2).At(i)] = true
			toolSet[b.Ints(3).At(i)] = true
			return true
		}); err != nil {
		return nil, err
	}
	var err error
	if d.Metrics, err = s.resolveSet(dictMetric, metricSet); err != nil {
		return nil, err
	}
	if d.Tools, err = s.resolveSet(dictTool, toolSet); err != nil {
		return nil, err
	}

	// Execution-scoped resources.
	riTab, _ := s.eng.Table("resource_item")
	if err := riTab.Lookup("resource_item_exec", []reldb.Value{reldb.Int(execID)},
		func(*reldb.ColumnBlock, int) bool {
			d.Resources++
			return true
		}); err != nil {
		return nil, err
	}
	return d, nil
}

// resolveSet returns the sorted names of a set of dictionary k's IDs.
func (s *Store) resolveSet(k int, ids map[int64]bool) ([]string, error) {
	view := s.names.dict(k)
	out := make([]string, 0, len(ids))
	for id := range ids {
		name := view.Name(id)
		if name == "" {
			return nil, fmt.Errorf("datastore: no %s id %d", dictSpecs[k].table, id)
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// DeleteExecution removes one execution and everything only it owns:
// its performance results (with their focus links and histograms), its
// execution-scoped resources (with attributes, constraints, closure rows,
// and focus links), and any foci left unreferenced. Shared resources
// (machines, code, applications) are untouched. The whole delete set is
// read under the writer lock and removed by one engine transaction: a
// reader sees all of the execution or none of it.
func (s *Store) DeleteExecution(name string) (err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	execID, ok := s.names.id(dictExecution, name)
	if !ok {
		return fmt.Errorf("datastore: unknown execution %q: %w", name, ErrNotFound)
	}
	// Whatever the transaction removes — nothing, if it fails — the
	// directory is reloaded from the rows that remain.
	defer func() {
		if rerr := s.reloadNames(); rerr != nil {
			err = errors.Join(err, fmt.Errorf("datastore: names reload after delete: %w", rerr))
		}
	}()
	d := &deletion{s: s, tx: s.eng.Begin(), gone: make(map[string]map[int64]bool)}
	if err := d.execution(name, execID); err != nil {
		return errors.Join(err, d.tx.Rollback())
	}
	if err := d.tx.Commit(); err != nil {
		return errors.Join(err, d.tx.Rollback())
	}
	return nil
}

// deletion gathers the rows an execution's delete removes into one
// transaction. Nothing is removed until it commits, so every read here
// sees the store as it was; gone is what the transaction already removes.
type deletion struct {
	s    *Store
	tx   *reldb.Tx
	gone map[string]map[int64]bool // by table, row IDs
	err  error
}

// row adds one row to the delete set.
func (d *deletion) row(table string, id int64) {
	if d.gone[table] == nil {
		d.gone[table] = make(map[int64]bool)
	}
	if !d.gone[table][id] && d.err == nil {
		d.gone[table][id] = true
		d.err = d.tx.Delete(table, id)
	}
}

// matching adds every row of a table whose index — the primary key when
// index is "" — starts with id, and returns the rows' integer column col.
func (d *deletion) matching(table, index string, id int64, col int) []int64 {
	tab, _ := d.s.eng.Table(table)
	var ids, vals []int64
	err := tab.Lookup(index, []reldb.Value{reldb.Int(id)}, func(b *reldb.ColumnBlock, i int) bool {
		ids, vals = append(ids, b.IDs().At(i)), append(vals, b.Ints(col).At(i))
		return true
	})
	if d.err == nil {
		d.err = err
	}
	for _, rid := range ids { // not inside the lookup: its callback must not take the engine lock again
		d.row(table, rid)
	}
	return vals
}

func (d *deletion) execution(name string, execID int64) error {
	// 1. Results of the execution, plus their focus links and histograms.
	resultIDs, err := d.s.ExecutionResultIDs(name)
	if err != nil {
		return err
	}
	rhTab, _ := d.s.eng.Table("result_histogram")
	touchedFoci := map[int64]bool{}
	for _, rid := range resultIDs {
		for _, fid := range d.matching("result_has_focus", "", rid, 1) {
			touchedFoci[fid] = true
		}
		if _, hid, found := rhTab.GetByPK(reldb.Int(rid)); found {
			d.row("result_histogram", hid)
		}
		d.row("performance_result", rid)
	}

	// 2. Execution-scoped resources, with their attributes, constraints,
	// closure rows in both roles and every focus holding one (such a focus
	// exists only for this execution's results).
	riTab, _ := d.s.eng.Table("resource_item")
	resources, err := appendColumn(nil, riTab, "resource_item_exec", execID, -1)
	if err != nil {
		return err
	}
	for _, id := range resources {
		d.matching("resource_attribute", "resource_attribute_res", id, 0)
		d.matching("resource_constraint", "resource_constraint_r1", id, 0)
		d.matching("resource_constraint", "resource_constraint_r2", id, 0)
		d.matching("resource_has_ancestor", "", id, 0)
		d.matching("resource_has_ancestor", "rha_ancestor", id, 0)
		d.matching("resource_has_descendant", "", id, 0)
		d.matching("resource_has_descendant", "rhd_descendant", id, 0)
		for _, fid := range d.matching("focus_has_resource", "fhr_resource", id, 0) {
			d.focus(fid)
		}
		d.row("resource_item", id)
	}

	// 3. Foci touched by the execution's results that are now orphaned:
	// every result link to them is in the delete set.
	rhfTab, _ := d.s.eng.Table("result_has_focus")
	for fid := range touchedFoci {
		orphaned := true
		if err := rhfTab.Lookup("rhf_focus", []reldb.Value{reldb.Int(fid)},
			func(b *reldb.ColumnBlock, i int) bool {
				orphaned = d.gone["result_has_focus"][b.IDs().At(i)]
				return orphaned
			}); err != nil {
			return err
		}
		if orphaned {
			d.focus(fid)
		}
	}

	// 4. The execution row itself.
	d.row("execution", execID)
	return d.err
}

// focus adds a focus, its resource links and any result links
// referencing it.
func (d *deletion) focus(fid int64) {
	if d.gone["focus"][fid] {
		return
	}
	d.matching("focus_has_resource", "", fid, 0)
	d.matching("result_has_focus", "rhf_focus", fid, 0)
	d.row("focus", fid)
}
