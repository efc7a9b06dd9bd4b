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
	if err := prTab.IndexScan("performance_result_exec", []reldb.Value{reldb.Int(execID)},
		func(_ int64, prow reldb.Row) bool {
			d.Results++
			metricSet[prow[2].Int64()] = true
			toolSet[prow[3].Int64()] = true
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
	if err := riTab.IndexScan("resource_item_exec", []reldb.Value{reldb.Int(execID)},
		func(int64, reldb.Row) bool {
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
// (machines, code, applications) are untouched.
func (s *Store) DeleteExecution(name string) (err error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	execID, ok := s.names.id(dictExecution, name)
	if !ok {
		return fmt.Errorf("datastore: unknown execution %q: %w", name, ErrNotFound)
	}
	// Whatever the deletes below remove — or leave behind on an error —
	// the directory is reloaded from the rows that remain.
	defer func() {
		if rerr := s.reloadNames(); rerr != nil {
			err = errors.Join(err, fmt.Errorf("datastore: names reload after delete: %w", rerr))
		}
	}()

	// 1. Results of the execution, plus their focus links and histograms.
	resultIDs, err := s.ExecutionResultIDs(name)
	if err != nil {
		return err
	}
	rhfTab, _ := s.eng.Table("result_has_focus")
	rhTab, _ := s.eng.Table("result_histogram")
	touchedFoci := map[int64]bool{}
	for _, rid := range resultIDs {
		var linkIDs []int64
		if err := rhfTab.PKScan([]reldb.Value{reldb.Int(rid)}, func(lid int64, lrow reldb.Row) bool {
			linkIDs = append(linkIDs, lid)
			touchedFoci[lrow[1].Int64()] = true
			return true
		}); err != nil {
			return err
		}
		for _, lid := range linkIDs {
			if err := s.deleteRow("result_has_focus", lid); err != nil {
				return err
			}
		}
		if _, hid, found := rhTab.GetByPK(reldb.Int(rid)); found {
			if err := s.deleteRow("result_histogram", hid); err != nil {
				return err
			}
		}
		if err := s.deleteRow("performance_result", rid); err != nil {
			return err
		}
	}

	// 2. Execution-scoped resources, deepest first so children go before
	// parents (foreign keys and closure rows reference upward).
	riTab, _ := s.eng.Table("resource_item")
	type resEntry struct {
		id   int64
		name core.ResourceName
	}
	var resources []resEntry
	if err := riTab.IndexScan("resource_item_exec", []reldb.Value{reldb.Int(execID)},
		func(id int64, row reldb.Row) bool {
			resources = append(resources, resEntry{id: id, name: core.ResourceName(row[1].Text())})
			return true
		}); err != nil {
		return err
	}
	sort.Slice(resources, func(i, j int) bool {
		return resources[i].name.Depth() > resources[j].name.Depth()
	})
	raTab, _ := s.eng.Table("resource_attribute")
	rcTab, _ := s.eng.Table("resource_constraint")
	rhaTab, _ := s.eng.Table("resource_has_ancestor")
	rhdTab, _ := s.eng.Table("resource_has_descendant")
	fhrTab, _ := s.eng.Table("focus_has_resource")
	for _, re := range resources {
		// Attributes.
		if err := s.deleteMatching(raTab, "resource_attribute", "resource_attribute_res",
			[]reldb.Value{reldb.Int(re.id)}); err != nil {
			return err
		}
		// Constraints in either direction.
		if err := s.deleteMatching(rcTab, "resource_constraint", "resource_constraint_r1",
			[]reldb.Value{reldb.Int(re.id)}); err != nil {
			return err
		}
		if err := s.deleteMatching(rcTab, "resource_constraint", "resource_constraint_r2",
			[]reldb.Value{reldb.Int(re.id)}); err != nil {
			return err
		}
		// Closure rows, both roles.
		var closureIDs []int64
		if err := rhaTab.PKScan([]reldb.Value{reldb.Int(re.id)}, func(id int64, _ reldb.Row) bool {
			closureIDs = append(closureIDs, id)
			return true
		}); err != nil {
			return err
		}
		for _, id := range closureIDs {
			if err := s.deleteRow("resource_has_ancestor", id); err != nil {
				return err
			}
		}
		if err := s.deleteMatching(rhaTab, "resource_has_ancestor", "rha_ancestor",
			[]reldb.Value{reldb.Int(re.id)}); err != nil {
			return err
		}
		closureIDs = closureIDs[:0]
		if err := rhdTab.PKScan([]reldb.Value{reldb.Int(re.id)}, func(id int64, _ reldb.Row) bool {
			closureIDs = append(closureIDs, id)
			return true
		}); err != nil {
			return err
		}
		for _, id := range closureIDs {
			if err := s.deleteRow("resource_has_descendant", id); err != nil {
				return err
			}
		}
		if err := s.deleteMatching(rhdTab, "resource_has_descendant", "rhd_descendant",
			[]reldb.Value{reldb.Int(re.id)}); err != nil {
			return err
		}
		// Focus membership: remove the focus rows wholesale (any focus
		// containing a per-execution resource exists only for this
		// execution's results, all deleted above).
		var foci []int64
		if err := fhrTab.IndexScan("fhr_resource", []reldb.Value{reldb.Int(re.id)},
			func(_ int64, frow reldb.Row) bool {
				foci = append(foci, frow[0].Int64())
				return true
			}); err != nil {
			return err
		}
		for _, fid := range foci {
			if err := s.deleteFocusLocked(fid); err != nil {
				return err
			}
		}
		if err := s.deleteRow("resource_item", re.id); err != nil {
			return err
		}
	}

	// 3. Foci touched by the execution's results that are now orphaned.
	for fid := range touchedFoci {
		orphaned := true
		if err := rhfTab.IndexScan("rhf_focus", []reldb.Value{reldb.Int(fid)},
			func(int64, reldb.Row) bool {
				orphaned = false
				return false
			}); err != nil {
			return err
		}
		if orphaned {
			if err := s.deleteFocusLocked(fid); err != nil {
				return err
			}
		}
	}

	// 4. The execution row itself.
	return s.deleteRow("execution", execID)
}

// deleteMatching removes every row of a table whose index prefix matches.
func (s *Store) deleteMatching(tab *reldb.Table, table, index string, prefix []reldb.Value) error {
	var ids []int64
	if err := tab.IndexScan(index, prefix, func(id int64, _ reldb.Row) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		return err
	}
	for _, id := range ids {
		if err := s.deleteRow(table, id); err != nil {
			return err
		}
	}
	return nil
}

// deleteFocusLocked removes a focus, its resource links, and any result
// links referencing it.
func (s *Store) deleteFocusLocked(fid int64) error {
	fTab, _ := s.eng.Table("focus")
	if _, ok := fTab.Get(fid); !ok {
		return nil // already removed via another resource
	}
	fhrTab, _ := s.eng.Table("focus_has_resource")
	var linkIDs []int64
	if err := fhrTab.PKScan([]reldb.Value{reldb.Int(fid)}, func(id int64, _ reldb.Row) bool {
		linkIDs = append(linkIDs, id)
		return true
	}); err != nil {
		return err
	}
	for _, id := range linkIDs {
		if err := s.deleteRow("focus_has_resource", id); err != nil {
			return err
		}
	}
	rhfTab, _ := s.eng.Table("result_has_focus")
	linkIDs = linkIDs[:0]
	if err := rhfTab.IndexScan("rhf_focus", []reldb.Value{reldb.Int(fid)},
		func(id int64, _ reldb.Row) bool {
			linkIDs = append(linkIDs, id)
			return true
		}); err != nil {
		return err
	}
	for _, id := range linkIDs {
		if err := s.deleteRow("result_has_focus", id); err != nil {
			return err
		}
	}
	return s.deleteRow("focus", fid)
}

// deleteRow deletes one engine row. The engine takes its own lock; lock
// ordering is always wmu → engine.
func (s *Store) deleteRow(table string, id int64) error {
	return s.eng.Delete(table, id)
}
