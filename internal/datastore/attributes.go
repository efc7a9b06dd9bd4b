package datastore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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
// (empty = all), with per-key domain statistics. One block pass over the
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
	scan, err := raTab.Blocks(math.MinInt64, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	_ = scan.Each(func(b *reldb.ColumnBlock) error { // the visitor cannot fail
		ids, rids, names, values := b.IDs(), b.Ints(1), b.Strings(2), b.Strings(3)
		for i, name := range names {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			k, id := key{rids.At(i), name}, ids.At(i)
			if c, ok := latest[k]; !ok || id > c.rowID {
				latest[k] = slot{id, values[i]}
			}
		}
		return nil
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
	if err := raTab.Lookup("resource_attribute_name", []reldb.Value{reldb.Str(attr)},
		func(b *reldb.ColumnBlock, i int) bool {
			id, rid := b.IDs().At(i), b.Ints(1).At(i)
			if c, ok := latest[rid]; !ok || id > c.rowID {
				latest[rid] = slot{id, b.Strings(3)[i]}
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
// resources are the resources of the execution's results' contexts, as
// the caller read them (a comparison's aligner does): the results, their
// foci and the foci's resources are not read again.
func (s *Store) ExecutionResourceIDs(exec string, resources []int64) ([]int64, error) {
	execID, ok := s.names.id(dictExecution, exec)
	if !ok {
		return nil, fmt.Errorf("datastore: unknown execution %q: %w", exec, ErrNotFound)
	}
	// Execution-scoped resources (the /execName hierarchy).
	riTab, _ := s.eng.Table("resource_item")
	ids, err := appendColumn(slices.Clone(resources), riTab, "resource_item_exec", execID, -1)
	if err != nil {
		return nil, err
	}
	base := sortDedup(ids)
	// Constraint partners: attributes whose value is another resource.
	rcTab, _ := s.eng.Table("resource_constraint")
	var partners []int64
	for _, rid := range base {
		if partners, err = appendColumn(partners, rcTab, "resource_constraint_r1", rid, 2); err != nil {
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
		if ancestors, err = appendColumn(ancestors, rhaTab, "", rid, 1); err != nil {
			return nil, err
		}
	}
	return sortDedup(append([]int64(withPartners), ancestors...)), nil
}

// ExecutionsOfResults maps a set of performance-result IDs back to the
// sorted names of the executions that own them. IDs no row carries are
// skipped. A bitmap-form set is dense over its ID range, so it is read by
// one pass over the blocks of that range, ctx checked once per block, a
// row counting when the set holds its ID. The offsets form holds few IDs
// for its span, so they are read by key (keyed): a lookup each, unless
// they lie close enough for a block pass.
func (s *Store) ExecutionsOfResults(ctx context.Context, ids IDSet) ([]string, error) {
	owners := make(map[int64]bool)
	switch {
	case ids.Len() == 0:
	case ids.width != 0:
		want := s.borrowIndex(ids.IDs())
		err := s.keyed(ctx, "performance_result", want, func(b *reldb.ColumnBlock, i, _ int) error {
			owners[b.Ints(1).At(i)] = true
			return nil
		})
		s.returnIndex(want)
		if err != nil {
			return nil, err
		}
	default:
		scan, err := s.Blocks("performance_result", ids.base, ids.last())
		if err != nil {
			return nil, err
		}
		if err := scan.Each(func(b *reldb.ColumnBlock) error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("datastore: performance_result read: %w", err)
			}
			keys, execs := b.Ints(0), b.Ints(1)
			for i := range b.Len() {
				if ids.has(keys.At(i)) {
					owners[execs.At(i)] = true
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return s.resolveSet(dictExecution, owners)
}
