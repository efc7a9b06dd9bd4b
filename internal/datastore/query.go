package datastore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/par"
	"perftrack/internal/reldb"
)

// ResourceByName fetches a resource with its attributes and constraints.
func (s *Store) ResourceByName(name core.ResourceName) (*core.Resource, error) {
	id, ok := s.names.id(dictResource, string(name))
	if !ok {
		return nil, fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	typ, _ := s.names.typeOfResource(name)
	res := core.NewResource(name, typ)
	raTab, _ := s.eng.Table("resource_attribute")
	if err := raTab.Lookup("resource_attribute_res", []reldb.Value{reldb.Int(id)},
		func(b *reldb.ColumnBlock, i int) bool {
			res.SetAttribute(b.Strings(2)[i], b.Strings(3)[i])
			return true
		}); err != nil {
		return nil, err
	}
	// Collect constraint partner IDs inside the lookup and resolve names
	// after it returns.
	rcTab, _ := s.eng.Table("resource_constraint")
	partnerIDs, err := appendColumn(nil, rcTab, "resource_constraint_r1", id, 2)
	if err != nil {
		return nil, err
	}
	for _, partner := range s.namesOfIDs(partnerIDs) {
		res.AddConstraint(partner)
	}
	return res, nil
}

// TypeOfResource returns the type of an existing resource without
// materializing its attributes.
func (s *Store) TypeOfResource(name core.ResourceName) (core.TypePath, error) {
	typ, ok := s.names.typeOfResource(name)
	if !ok {
		return "", fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	return typ, nil
}

// HasResource reports whether the full resource name exists.
func (s *Store) HasResource(name core.ResourceName) bool {
	_, ok := s.names.id(dictResource, string(name))
	return ok
}

// ResourcesOfType lists resources with exactly the given type, sorted.
func (s *Store) ResourcesOfType(t core.TypePath) ([]core.ResourceName, error) {
	ffid, ok := s.names.id(dictType, string(t))
	if !ok {
		return nil, fmt.Errorf("datastore: unknown type %q: %w", t, ErrNotFound)
	}
	return s.resourcesBy("resource_item_type", reldb.Int(ffid))
}

// ResourcesWithBaseName lists resources whose final component is base.
func (s *Store) ResourcesWithBaseName(base string) ([]core.ResourceName, error) {
	return s.resourcesBy("resource_item_base", reldb.Str(base))
}

// Children lists the direct child resources of a name, sorted. The GUI
// fetches children lazily when the user expands a resource.
func (s *Store) Children(name core.ResourceName) ([]core.ResourceName, error) {
	id, ok := s.names.id(dictResource, string(name))
	if !ok {
		return nil, fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	return s.resourcesBy("resource_item_parent", reldb.Int(id))
}

// resourcesBy lists the names of the resources one resource_item index
// holds under key, sorted.
func (s *Store) resourcesBy(index string, key reldb.Value) ([]core.ResourceName, error) {
	riTab, _ := s.eng.Table("resource_item")
	var out []core.ResourceName
	if err := riTab.Lookup(index, []reldb.Value{key}, func(b *reldb.ColumnBlock, i int) bool {
		out = append(out, core.ResourceName(b.Strings(1)[i]))
		return true
	}); err != nil {
		return nil, err
	}
	slices.Sort(out)
	return out, nil
}

// Ancestors returns all proper ancestors of a resource. With closure
// tables enabled this reads resource_has_ancestor; otherwise it walks
// parent_id links (the paper notes the tables exist to avoid that walk).
func (s *Store) Ancestors(name core.ResourceName) ([]core.ResourceName, error) {
	id, ok := s.names.id(dictResource, string(name))
	if !ok {
		return nil, fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	var out []core.ResourceName
	if s.UseClosureTables {
		rhaTab, _ := s.eng.Table("resource_has_ancestor")
		ancIDs, err := appendColumn(nil, rhaTab, "", id, 1)
		if err != nil {
			return nil, err
		}
		out = s.namesOfIDs(ancIDs)
	} else {
		riTab, _ := s.eng.Table("resource_item")
		cur := id
		for {
			row, ok := riTab.Get(cur)
			if !ok || row[3].IsNull() {
				break
			}
			cur = row[3].Int64()
			prow, ok := riTab.Get(cur)
			if !ok {
				break
			}
			out = append(out, core.ResourceName(prow[1].Text()))
		}
	}
	slices.Sort(out)
	return out, nil
}

// Descendants returns all proper descendants of a resource.
func (s *Store) Descendants(name core.ResourceName) ([]core.ResourceName, error) {
	id, ok := s.names.id(dictResource, string(name))
	if !ok {
		return nil, fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	var out []core.ResourceName
	if s.UseClosureTables {
		rhdTab, _ := s.eng.Table("resource_has_descendant")
		descIDs, err := appendColumn(nil, rhdTab, "", id, 1)
		if err != nil {
			return nil, err
		}
		out = s.namesOfIDs(descIDs)
	} else {
		// Breadth-first walk over parent links.
		riTab, _ := s.eng.Table("resource_item")
		queue := []int64{id}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if err := riTab.Lookup("resource_item_parent", []reldb.Value{reldb.Int(cur)},
				func(b *reldb.ColumnBlock, i int) bool {
					out = append(out, core.ResourceName(b.Strings(1)[i]))
					queue = append(queue, b.IDs().At(i))
					return true
				}); err != nil {
				return nil, err
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// appendColumn appends to dst the integer column col — the row ID when
// col < 0 — of each row whose index key (primary key, for index "")
// starts with key, in Lookup's order, and returns the extended slice.
func appendColumn(dst []int64, tab *reldb.Table, index string, key int64, col int) ([]int64, error) {
	err := tab.Lookup(index, []reldb.Value{reldb.Int(key)}, func(b *reldb.ColumnBlock, i int) bool {
		if col < 0 {
			dst = append(dst, b.IDs().At(i))
		} else {
			dst = append(dst, b.Ints(col).At(i))
		}
		return true
	})
	return dst, err
}

// namesOfIDs maps resource IDs to names.
func (s *Store) namesOfIDs(ids []int64) []core.ResourceName {
	return resourceNames(s.names.dict(dictResource), ids)
}

// resourceNames maps resource IDs to names through a view of the
// resource dictionary.
func resourceNames(res Dict, ids []int64) []core.ResourceName {
	if len(ids) == 0 {
		return nil
	}
	out := make([]core.ResourceName, 0, len(ids))
	for _, id := range ids {
		out = append(out, core.ResourceName(res.Name(id)))
	}
	return out
}

// ApplyFilterCtx evaluates a resource filter over the store, returning
// the resulting resource family (relatives included per the filter's
// flag). Attribute predicates are answered from the resource_attribute
// (name, value) index — one index scan per predicate, intersected
// smallest-first — instead of materializing every candidate resource.
// When a trace rides ctx, evaluation records a datastore.filter span
// annotated with the resulting family size.
func (s *Store) ApplyFilterCtx(ctx context.Context, rf core.ResourceFilter) (core.Family, error) {
	ctx, span := obs.StartSpan(ctx, "datastore.filter")
	fam, err := s.applyFilter(ctx, rf)
	if err == nil {
		span.Annotate("members", strconv.Itoa(fam.Size()))
	}
	span.End()
	return fam, err
}

func (s *Store) applyFilter(ctx context.Context, rf core.ResourceFilter) (core.Family, error) {
	fam := core.NewFamily()
	var matched []core.ResourceName
	selected := true // a name/base/type selection mode is set
	switch {
	case rf.Name != "":
		if s.HasResource(rf.Name) {
			matched = append(matched, rf.Name)
		}
	case rf.BaseName != "":
		ms, err := s.ResourcesWithBaseName(rf.BaseName)
		if err != nil {
			return fam, err
		}
		matched = ms
	case rf.Type != "":
		ms, err := s.ResourcesOfType(rf.Type)
		if err != nil {
			return fam, err
		}
		matched = ms
	default:
		selected = false
	}
	switch {
	case len(rf.Attrs) > 0:
		ids, err := s.attrFilterIDs(rf.Attrs)
		if err != nil {
			return fam, err
		}
		if selected {
			// Narrow the selected names by the attribute ID-set.
			sel, _ := s.names.resourceIDs(nil, matched)
			ids = NewIDSet(sortDedup(sel)).Intersect(ids)
		}
		matched = matched[:0]
		res := s.names.dict(dictResource)
		ids.each(func(id int64) {
			if n := res.Name(id); n != "" {
				matched = append(matched, core.ResourceName(n))
			}
		})
		slices.Sort(matched)
	case !selected:
		// No selection criteria at all: every resource matches.
		for _, name := range s.names.sorted(dictResource) {
			matched = append(matched, core.ResourceName(name))
		}
	}
	for _, m := range matched {
		fam.Add(m)
	}
	wantAnc := rf.Include == core.IncludeAncestors || rf.Include == core.IncludeBoth
	wantDesc := rf.Include == core.IncludeDescendants || rf.Include == core.IncludeBoth
	for _, m := range matched {
		if err := ctx.Err(); err != nil {
			return fam, fmt.Errorf("datastore: filter: %w", err)
		}
		if wantAnc {
			anc, err := s.Ancestors(m)
			if err != nil {
				return fam, err
			}
			for _, a := range anc {
				fam.Add(a)
			}
		}
		if wantDesc {
			desc, err := s.Descendants(m)
			if err != nil {
				return fam, err
			}
			for _, d := range desc {
				fam.Add(d)
			}
		}
	}
	return fam, nil
}

// attrMatchIDs returns the sorted IDs of resources whose effective value
// for the predicate's attribute satisfies it, from one scan of the
// resource_attribute (name, value) index. When an attribute was set more
// than once, the highest-rowid row wins — the same last-write-wins rule
// resource materialization applies.
func (s *Store) attrMatchIDs(p core.AttrPredicate) (IDSet, error) {
	raTab, _ := s.eng.Table("resource_attribute")
	type cur struct {
		rowID int64
		value string
	}
	latest := make(map[int64]cur)
	if err := raTab.Lookup("resource_attribute_name", []reldb.Value{reldb.Str(p.Attr)},
		func(b *reldb.ColumnBlock, i int) bool {
			id, rid := b.IDs().At(i), b.Ints(1).At(i)
			if c, ok := latest[rid]; !ok || id > c.rowID {
				latest[rid] = cur{id, b.Strings(3)[i]}
			}
			return true
		}); err != nil {
		return IDSet{}, err
	}
	ids := make([]int64, 0, len(latest))
	for rid, c := range latest {
		if p.Eval(c.value) {
			ids = append(ids, rid)
		}
	}
	return NewIDSet(sortDedup(ids)), nil
}

// attrFilterIDs evaluates a conjunction of attribute predicates through
// the attribute index, intersecting the per-predicate candidate sets
// smallest-first.
func (s *Store) attrFilterIDs(preds []core.AttrPredicate) (IDSet, error) {
	sets := make([]IDSet, len(preds))
	for i, p := range preds {
		ids, err := s.attrMatchIDs(p)
		if err != nil {
			return IDSet{}, err
		}
		sets[i] = ids
	}
	return intersectAll(sets), nil
}

// familyResultIDs returns the set of performance-result IDs whose
// contexts touch any member of the family. Results are cached per store
// generation under the family's canonical signature, so the GUI's
// per-family live counts cost one map lookup between writes. ctx is
// checked before each member's and each focus's index scan; a cancelled
// evaluation caches nothing.
func (s *Store) familyResultIDs(ctx context.Context, fam sortedFamily) (IDSet, error) {
	gen := s.gen.Load()
	key := "fam:" + fam.sig
	_, span := obs.StartSpan(ctx, "datastore.family")
	defer span.End()
	if ids, ok := s.cache.Get(gen, key); ok {
		span.Annotate("cache", "hit")
		return ids, nil
	}
	span.Annotate("cache", "miss")
	fhrTab, _ := s.eng.Table("focus_has_resource")
	rhfTab, _ := s.eng.Table("result_has_focus")
	sc := s.famScratch.Get().(*famScratch)
	defer s.famScratch.Put(sc)
	sc.members, _ = s.names.resourceIDs(sc.members[:0], fam.members)
	// Column 0 of both link tables is the owner: the focus, the result.
	sc.foci = sc.foci[:0]
	for _, rid := range sc.members {
		if err := ctx.Err(); err != nil {
			return IDSet{}, fmt.Errorf("datastore: family: %w", err)
		}
		var err error
		if sc.foci, err = appendColumn(sc.foci, fhrTab, "fhr_resource", rid, 0); err != nil {
			return IDSet{}, err
		}
	}
	sc.results = sc.results[:0]
	for _, fid := range sortDedup(sc.foci) {
		if err := ctx.Err(); err != nil {
			return IDSet{}, fmt.Errorf("datastore: family: %w", err)
		}
		var err error
		if sc.results, err = appendColumn(sc.results, rhfTab, "rhf_focus", fid, 0); err != nil {
			return IDSet{}, err
		}
	}
	ids := packUnordered(sc.results)
	s.cache.Put(gen, key, ids, ids.bytes())
	return ids, nil
}

// sortedFamily is a family as its evaluation uses it: its members, sorted,
// and their signature (core.Family.Signature), each made once.
type sortedFamily struct {
	members []core.ResourceName
	sig     string
}

func sortFamily(fam core.Family) sortedFamily {
	members := fam.Members()
	return sortedFamily{members, core.SignatureOf(members)}
}

// famScratch is one family evaluation's working memory, pooled in
// Store.famScratch so a cold count allocates little beyond its set: the
// member resources, their foci, and the results linked to those.
// ExecutionResultIDs gathers an execution's results in the same buffer.
type famScratch struct{ members, foci, results []int64 }

// familySets evaluates every family's result-ID set in contiguous spans
// of fams (par.Range). The engine takes a reader lock per scan, so
// independent families read concurrently without blocking each other.
func (s *Store) familySets(ctx context.Context, fams []sortedFamily) ([]IDSet, error) {
	sets := make([]IDSet, len(fams))
	err := par.Range(len(fams), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			ids, err := s.familyResultIDs(ctx, fams[i])
			if err != nil {
				return err
			}
			sets[i] = ids
		}
		return nil
	})
	return sets, err
}

// matchingIDs evaluates a pr-filter of one or more families to its result
// set, which the match cache shares. When a trace rides ctx it records a
// datastore.prfilter span annotated with the match-cache outcome.
func (s *Store) matchingIDs(ctx context.Context, prf core.PRFilter) (IDSet, error) {
	gen := s.gen.Load()
	fams := make([]sortedFamily, len(prf.Families))
	sigs := make([]string, len(prf.Families))
	for i, fam := range prf.Families {
		fams[i] = sortFamily(fam)
		sigs[i] = fams[i].sig
	}
	key := "prf:" + core.JoinSignatures(sigs)
	ctx, span := obs.StartSpan(ctx, "datastore.prfilter")
	defer span.End()
	if ids, ok := s.cache.Get(gen, key); ok {
		span.Annotate("cache", "hit")
		return ids, nil
	}
	span.Annotate("cache", "miss")
	sets, err := s.familySets(ctx, fams)
	if err != nil {
		return IDSet{}, err
	}
	ids := intersectAll(sets)
	s.cache.Put(gen, key, ids, ids.bytes())
	return ids, nil
}

// allResultIDs is the empty pr-filter's set, every result ID: read off the
// row-ID column of performance_result's block source, whose blocks ascend
// by ID, checking ctx once per block. No row is built. The source opens
// through Store.Blocks, so the scan counts in the store telemetry.
func (s *Store) allResultIDs(ctx context.Context) ([]int64, error) {
	scan, err := s.Blocks("performance_result", math.MinInt64, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	prTab, _ := s.eng.Table("performance_result")
	all := make([]int64, 0, prTab.Len())
	err = scan.Each(func(b *reldb.ColumnBlock) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("datastore: performance_result scan: %w", err)
		}
		ids := b.IDs()
		for i := range b.Len() {
			all = append(all, ids.At(i))
		}
		return nil
	})
	return all, err
}

// MatchingSetCtx evaluates a pr-filter: the performance results whose
// contexts contain at least one resource from every family, as a set the
// match cache may share. Its Len is the match count; IDs builds the list.
func (s *Store) MatchingSetCtx(ctx context.Context, prf core.PRFilter) (IDSet, error) {
	if len(prf.Families) > 0 {
		return s.matchingIDs(ctx, prf)
	}
	all, err := s.allResultIDs(ctx)
	if err != nil {
		return IDSet{}, err
	}
	return NewIDSet(all), nil
}

// MatchingResultIDsCtx evaluates a pr-filter to the IDs of the results
// MatchingSetCtx selects, ascending. The returned slice is the caller's
// to modify.
func (s *Store) MatchingResultIDsCtx(ctx context.Context, prf core.PRFilter) ([]int64, error) {
	if len(prf.Families) == 0 {
		return s.allResultIDs(ctx)
	}
	ids, err := s.matchingIDs(ctx, prf)
	if err != nil {
		return nil, err
	}
	return ids.IDs(), nil
}

// CountMatchesCtx reports how many performance results a pr-filter
// selects — the GUI's live match count. It reads the set's stored length,
// building no ID list; with a warm cache it is one map lookup.
func (s *Store) CountMatchesCtx(ctx context.Context, prf core.PRFilter) (int, error) {
	if len(prf.Families) == 0 {
		prTab, _ := s.eng.Table("performance_result")
		return prTab.Len(), nil
	}
	ids, err := s.matchingIDs(ctx, prf)
	if err != nil {
		return 0, err
	}
	return ids.Len(), nil
}

// CountFamilyMatchesCtx reports how many results one family alone
// selects — the GUI's per-family count.
func (s *Store) CountFamilyMatchesCtx(ctx context.Context, fam core.Family) (int, error) {
	ids, err := s.familyResultIDs(ctx, sortFamily(fam))
	if err != nil {
		return 0, err
	}
	return ids.Len(), nil
}

// ResultByID materializes a performance result with its contexts: the
// per-ID reference the batch materializer is tested against.
func (s *Store) ResultByID(id int64) (*core.PerformanceResult, error) {
	prTab, _ := s.eng.Table("performance_result")
	row, ok := prTab.Get(id)
	if !ok {
		return nil, fmt.Errorf("datastore: no performance result %d: %w", id, ErrNotFound)
	}
	pr := &core.PerformanceResult{Value: row[5].Float64()}
	dicts := s.resultDicts()
	if err := dicts.resolve(pr, row[1].Int64(), row[2].Int64(), row[3].Int64(), row[4].Int64()); err != nil {
		return nil, err
	}
	// Contexts: result -> foci -> resources, via PK-prefix lookups on the
	// composite-keyed link tables. Each lookup only collects IDs: nesting an
	// engine call inside its callback would recursively RLock the engine,
	// which deadlocks when a writer is waiting in between.
	rhfTab, _ := s.eng.Table("result_has_focus")
	fTab, _ := s.eng.Table("focus")
	fhrTab, _ := s.eng.Table("focus_has_resource")
	foci, err := appendColumn(nil, rhfTab, "", id, 1)
	if err != nil {
		return nil, err
	}
	for _, fid := range foci {
		frow, ok := fTab.Get(fid)
		if !ok {
			return nil, fmt.Errorf("datastore: missing focus %d", fid)
		}
		ft, err := core.ParseFocusType(frow[1].Text())
		if err != nil {
			return nil, err
		}
		members, err := appendColumn(nil, fhrTab, "", fid, 1)
		if err != nil {
			return nil, err
		}
		pr.Contexts = append(pr.Contexts, core.Context{Type: ft, Resources: s.namesOfIDs(members)})
	}
	return pr, nil
}

// Applications lists application names, sorted.
func (s *Store) Applications() ([]string, error) { return s.names.sorted(dictApplication), nil }

// Executions lists execution names, sorted.
func (s *Store) Executions() ([]string, error) { return s.names.sorted(dictExecution), nil }

// Metrics lists metric names, sorted.
func (s *Store) Metrics() ([]string, error) { return s.names.sorted(dictMetric), nil }

// Tools lists performance tool names, sorted.
func (s *Store) Tools() ([]string, error) { return s.names.sorted(dictTool), nil }
