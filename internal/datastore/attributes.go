package datastore

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"perftrack/internal/reldb"
)

// MaxAttrDomain caps how many distinct values AttributeKeys samples per
// attribute. Distinct stays exact beyond the cap; only the Values sample
// is truncated, so high-cardinality attributes (timestamps, IDs) cannot
// bloat an attribute listing.
const MaxAttrDomain = 32

// AttrKeyInfo summarizes one attribute key as seen across the store: how
// many resources carry it, its effective value domain, and whether that
// domain is numeric. "Effective" follows the materializer's
// last-write-wins rule — when an attribute was set more than once on a
// resource, only the highest-rowid value counts.
type AttrKeyInfo struct {
	Name      string
	Resources int      // resources carrying the attribute
	Distinct  int      // distinct effective values (exact)
	Numeric   bool     // every effective value parses as a float
	Min, Max  float64  // value range; meaningful only when Numeric
	Values    []string // sorted sample of distinct values, ≤ MaxAttrDomain
}

// AttributeKeys enumerates attribute keys whose name starts with prefix
// (empty = all), with per-key domain statistics. One scan of the
// resource_attribute table; the diagnose subsystem and GET /v1/attributes
// use it to bound the predicate search space without touching resources.
func (s *Store) AttributeKeys(prefix string) ([]AttrKeyInfo, error) {
	raTab, ok := s.eng.Table("resource_attribute")
	if !ok {
		return nil, fmt.Errorf("datastore: no resource_attribute table")
	}
	type slot struct {
		rowID int64
		value string
	}
	type key struct {
		rid  int64
		name string
	}
	latest := make(map[key]slot)
	raTab.Scan(func(id int64, row reldb.Row) bool {
		name := row[2].Text()
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			return true
		}
		k := key{row[1].Int64(), name}
		if c, ok := latest[k]; !ok || id > c.rowID {
			latest[k] = slot{id, row[3].Text()}
		}
		return true
	})
	domains := make(map[string]map[string]int)
	for k, c := range latest {
		d := domains[k.name]
		if d == nil {
			d = make(map[string]int)
			domains[k.name] = d
		}
		d[c.value]++
	}
	out := make([]AttrKeyInfo, 0, len(domains))
	for name, d := range domains {
		info := AttrKeyInfo{Name: name, Distinct: len(d), Numeric: true}
		seenNum := false
		for v, n := range d {
			info.Resources += n
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				info.Numeric = false
				continue
			}
			if !seenNum || f < info.Min {
				info.Min = f
			}
			if !seenNum || f > info.Max {
				info.Max = f
			}
			seenNum = true
		}
		if !info.Numeric {
			info.Min, info.Max = 0, 0
		}
		vals := make([]string, 0, len(d))
		for v := range d {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		if len(vals) > MaxAttrDomain {
			vals = vals[:MaxAttrDomain]
		}
		info.Values = vals
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// AttributeValues returns the effective value of one attribute for every
// resource that carries it, keyed by resource ID, from one scan of the
// resource_attribute (name, value) index. Last write wins, matching
// attrMatchIDs and resource materialization.
func (s *Store) AttributeValues(attr string) (map[int64]string, error) {
	raTab, ok := s.eng.Table("resource_attribute")
	if !ok {
		return nil, fmt.Errorf("datastore: no resource_attribute table")
	}
	type slot struct {
		rowID int64
		value string
	}
	latest := make(map[int64]slot)
	if err := raTab.IndexScan("resource_attribute_name", []reldb.Value{reldb.Str(attr)},
		func(id int64, row reldb.Row) bool {
			rid := row[1].Int64()
			if c, ok := latest[rid]; !ok || id > c.rowID {
				latest[rid] = slot{id, row[3].Text()}
			}
			return true
		}); err != nil {
		return nil, err
	}
	out := make(map[int64]string, len(latest))
	for rid, c := range latest {
		out[rid] = c.value
	}
	return out, nil
}

// ExecutionResourceIDs returns the sorted IDs of every resource in the
// execution's footprint: resources appearing in the contexts of its
// performance results, resources scoped to the execution itself,
// constraint partners of those (resource-valued attributes like the node
// a process ran on), and all of their ancestors. This is the resource set
// over which attribute predicates about the execution are evaluated.
// ctx is checked once per block of the result_has_focus pass.
func (s *Store) ExecutionResourceIDs(ctx context.Context, exec string) ([]int64, error) {
	// Results of the execution → foci → context resources. Each scan only
	// collects IDs; nesting engine calls inside a scan callback would
	// recursively lock the engine.
	resultIDs, err := s.ExecutionResultIDs(exec)
	if err != nil {
		return nil, err // an unknown execution among them
	}
	execID, _ := s.names.id(dictExecution, exec)
	var foci []int64
	if err := s.ResultFoci(ctx, resultIDs, func(_ int, focus int64) {
		if n := len(foci); n == 0 || foci[n-1] != focus { // neighbouring results often share a focus
			foci = append(foci, focus)
		}
	}); err != nil {
		return nil, err
	}
	fhrTab, _ := s.eng.Table("focus_has_resource")
	var ids []int64
	for _, fid := range sortDedup(foci) {
		if err := fhrTab.PKScan([]reldb.Value{reldb.Int(fid)},
			func(_ int64, row reldb.Row) bool {
				ids = append(ids, row[1].Int64())
				return true
			}); err != nil {
			return nil, err
		}
	}
	// Execution-scoped resources (the /execName hierarchy).
	riTab, _ := s.eng.Table("resource_item")
	if err := riTab.IndexScan("resource_item_exec", []reldb.Value{reldb.Int(execID)},
		func(id int64, _ reldb.Row) bool {
			ids = append(ids, id)
			return true
		}); err != nil {
		return nil, err
	}
	base := sortDedup(ids)
	// Constraint partners: attributes whose value is another resource.
	rcTab, _ := s.eng.Table("resource_constraint")
	var partners []int64
	for _, rid := range base {
		if err := rcTab.IndexScan("resource_constraint_r1", []reldb.Value{reldb.Int(rid)},
			func(_ int64, row reldb.Row) bool {
				partners = append(partners, row[2].Int64())
				return true
			}); err != nil {
			return nil, err
		}
	}
	full := append([]int64(base), partners...)
	withPartners := sortDedup(full)
	// Ancestors, so machine-level attributes (clock MHz on a processor's
	// machine) count toward executions that ran on any of its nodes.
	rhaTab, _ := s.eng.Table("resource_has_ancestor")
	var ancestors []int64
	for _, rid := range withPartners {
		if err := rhaTab.PKScan([]reldb.Value{reldb.Int(rid)},
			func(_ int64, row reldb.Row) bool {
				ancestors = append(ancestors, row[1].Int64())
				return true
			}); err != nil {
			return nil, err
		}
	}
	return sortDedup(append([]int64(withPartners), ancestors...)), nil
}

// ExecutionsOfResults maps performance-result IDs back to the sorted set
// of execution names that own them, reading the owner column of the rows
// with those (ascending) IDs. Unknown result IDs are skipped.
func (s *Store) ExecutionsOfResults(ids []int64) ([]string, error) {
	prTab, ok := s.eng.Table("performance_result")
	if !ok {
		return nil, fmt.Errorf("datastore: no performance_result table")
	}
	owners := make(map[int64]bool)
	if err := prTab.Gather(ids, func(b *reldb.ColumnBlock) error {
		execs := b.Ints(1)
		for i := range b.Len() {
			owners[execs.At(i)] = true
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return s.resolveSet(dictExecution, owners)
}
