package datastore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"perftrack/internal/core"
	"perftrack/internal/reldb"
)

// The metadata tables of Figure 1 whose rows are (id, name, ...). The
// directory keeps each in both directions; resource_item's name is the
// full resource name and focus_framework's the type path.
const (
	dictApplication = iota
	dictExecution
	dictMetric
	dictTool
	dictUnits
	dictType
	dictResource
	numDicts
)

// dictSpecs names each dictionary's table and the integer column, if
// any, that a reader needs beside the name: an execution's application,
// a resource's type.
var dictSpecs = [numDicts]struct {
	table  string
	refCol int // 0 = none
}{
	dictApplication: {table: "application"},
	dictExecution:   {table: "execution", refCol: 2},
	dictMetric:      {table: "metric"},
	dictTool:        {table: "performance_tool"},
	dictUnits:       {table: "units"},
	dictType:        {table: "focus_framework"},
	dictResource:    {table: "resource_item", refCol: 4},
}

// dictOf returns the dictionary kept for a table, or -1.
func dictOf(table string) int {
	for k := range dictSpecs {
		if dictSpecs[k].table == table {
			return k
		}
	}
	return -1
}

// Dict is an immutable ID → name view of one dictionary, taken in O(1)
// and read without a lock: the storage behind it is append-only (a
// later name lands beyond the view's length), and a rollback or delete
// replaces the storage instead of changing it. Engine IDs only ascend,
// so names is indexed by ID while IDs are dense and paired with a sorted
// ID list otherwise; loadNames decides which, once.
type Dict struct {
	ids   []int64 // ascending; nil when names is indexed by ID
	names []string
}

// Name returns the name stored under id, or "" when there is none: the
// store admits no empty name into any dictionary.
func (d Dict) Name(id int64) string {
	if d.ids != nil {
		i, ok := slices.BinarySearch(d.ids, id)
		if !ok {
			return ""
		}
		return d.names[i]
	}
	if id < 0 || id >= int64(len(d.names)) {
		return ""
	}
	return d.names[id]
}

// MaxID returns the largest ID the view holds, 0 when it is empty.
func (d Dict) MaxID() int64 {
	if len(d.ids) > 0 {
		return d.ids[len(d.ids)-1]
	}
	return max(int64(len(d.names))-1, 0)
}

// dictionary is one metadata table in memory: name → ID, ID → name, and
// ID → the table's reference column where dictSpecs names one.
type dictionary struct {
	ids  map[string]int64
	view Dict
	ref  map[int64]int64
}

// add appends one row. IDs arrive ascending: the engine never reuses one.
func (d *dictionary) add(id int64, name string, ref int64) {
	d.ids[name] = id
	if d.ref != nil {
		d.ref[id] = ref
	}
	if d.view.ids != nil {
		d.view.ids = append(d.view.ids, id)
	} else {
		for int64(len(d.view.names)) < id {
			d.view.names = append(d.view.names, "") // an ID a rollback or delete left unused
		}
	}
	d.view.names = append(d.view.names, name)
}

// maxAttrStatValues caps the per-attribute distinct-value set. Past the
// cap the count becomes a lower-bound estimate, which is all the cost
// model needs (it only distinguishes selective from unselective keys).
const maxAttrStatValues = 1024

// attrStat accumulates one attribute name's planner statistics.
type attrStat struct {
	rows     int64
	vals     map[string]struct{}
	overflow bool
}

// nameState is what the directory holds; loadNames builds one from the
// rows.
type nameState struct {
	types     *core.TypeSystem
	dicts     [numDicts]dictionary
	focusIDs  map[string]int64 // focus signature → focus ID
	attrStats map[string]*attrStat
}

// names is the store's directory: the one owner of every name ↔ ID
// mapping, the type system and the per-attribute statistics — all that
// front ends show and all the load path interns. Three invariants:
//
//   - its content is built only by loadNames, from the rows;
//   - it is mutated only by the writer, which holds Store.wmu, one added
//     row at a time, and replaced whole (swap) after a rollback or delete;
//   - mu is a leaf: it is taken inside the methods below and nowhere
//     else, and none of them calls the engine, a callback or an emit
//     while holding it, so a reader waits for one map update, never for a
//     commit.
//
// A reader may therefore see the names of a batch that is still applying
// or will roll back — a focus signature among them, whose focus row, like
// every hot-table row of the batch, the engine shows only from the
// commit on — exactly as it may see that batch's rows in the other tables.
type names struct {
	mu sync.RWMutex
	nameState
}

// swap replaces the directory's content with a freshly loaded one. Views
// handed out earlier keep the storage they were taken from.
func (n *names) swap(st *nameState) {
	n.mu.Lock()
	n.nameState = *st
	n.mu.Unlock()
}

// id resolves a name in dictionary k.
func (n *names) id(k int, name string) (int64, bool) {
	n.mu.RLock()
	id, ok := n.dicts[k].ids[name]
	n.mu.RUnlock()
	return id, ok
}

// dict returns the ID → name view of dictionary k.
func (n *names) dict(k int) Dict {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dicts[k].view
}

// ref returns the reference column of row id in dictionary k: the
// application of an execution, the type of a resource.
func (n *names) ref(k int, id int64) (int64, bool) {
	n.mu.RLock()
	ref, ok := n.dicts[k].ref[id]
	n.mu.RUnlock()
	return ref, ok
}

// sorted lists dictionary k's names in order.
func (n *names) sorted(k int) []string {
	n.mu.RLock()
	out := make([]string, 0, len(n.dicts[k].ids))
	for name := range n.dicts[k].ids {
		out = append(out, name)
	}
	n.mu.RUnlock()
	sort.Strings(out)
	return out
}

// resourceIDs maps resource names to IDs in one critical section,
// skipping unknown names; miss is the index of the first one skipped, or
// -1.
func (n *names) resourceIDs(rs []core.ResourceName) (ids []int64, miss int) {
	ids, miss = make([]int64, 0, len(rs)), -1
	n.mu.RLock()
	for i, r := range rs {
		if id, ok := n.dicts[dictResource].ids[string(r)]; ok {
			ids = append(ids, id)
		} else if miss < 0 {
			miss = i
		}
	}
	n.mu.RUnlock()
	return ids, miss
}

// typeOfResource returns the type of a named resource.
func (n *names) typeOfResource(name core.ResourceName) (core.TypePath, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	res := &n.dicts[dictResource]
	id, ok := res.ids[string(name)]
	return core.TypePath(n.dicts[dictType].view.Name(res.ref[id])), ok
}

// add records one row the writer just inserted into dictionary k's table.
func (n *names) add(k int, id int64, name string, ref int64) {
	n.mu.Lock()
	n.dicts[k].add(id, name, ref)
	n.mu.Unlock()
}

// declareType registers a type path with the type system, parents
// first; its focus_framework ID follows through add once the row exists.
func (n *names) declareType(t core.TypePath) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.types.Add(t)
}

// checkResource verifies a resource name against its declared type.
func (n *names) checkResource(name core.ResourceName, typ core.TypePath) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.types.CheckResource(name, typ)
}

// typeSystem returns a copy of the type system.
func (n *names) typeSystem() *core.TypeSystem {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.types.Clone()
}

// focusID resolves a focus signature.
func (n *names) focusID(sig string) (int64, bool) {
	n.mu.RLock()
	id, ok := n.focusIDs[sig]
	n.mu.RUnlock()
	return id, ok
}

// addFocus records a focus row the writer just inserted.
func (n *names) addFocus(sig string, id int64) {
	n.mu.Lock()
	n.focusIDs[sig] = id
	n.mu.Unlock()
}

// addAttr records a resource_attribute row the writer just inserted.
func (n *names) addAttr(attr, value string) {
	n.mu.Lock()
	n.noteAttr(attr, value)
	n.mu.Unlock()
}

// statistics snapshots what the planner's cost model reads: distinct
// names per table and the per-attribute row and value counts.
func (n *names) statistics() (distinct map[string]int64, attrs []AttributeStat) {
	n.mu.RLock()
	distinct = map[string]int64{
		"resource_attribute": int64(len(n.attrStats)),
		"focus":              int64(len(n.focusIDs)),
	}
	for k := range n.dicts {
		distinct[dictSpecs[k].table] = int64(len(n.dicts[k].ids))
	}
	attrs = make([]AttributeStat, 0, len(n.attrStats))
	for name, a := range n.attrStats {
		attrs = append(attrs, AttributeStat{Name: name, Rows: a.rows, Distinct: int64(len(a.vals))})
	}
	n.mu.RUnlock()
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	return distinct, attrs
}

// loadNames builds the directory from the rows. It is the only
// constructor: Open, a rolled-back commit and DeleteExecution all call it
// — with no lock held, the writer being exclusive under wmu — and swap
// the result in.
func loadNames(eng *reldb.DB) (*nameState, error) {
	st := &nameState{
		types:     core.NewTypeSystem(),
		attrStats: make(map[string]*attrStat),
	}
	scan := func(table string, fn func(id int64, row reldb.Row) error) (err error) {
		t, _ := eng.Table(table) // Open created or migrated every schema table
		t.Scan(func(id int64, row reldb.Row) bool {
			err = fn(id, row)
			return err == nil
		})
		return err
	}
	for k, spec := range dictSpecs {
		// Collected as a sorted (ID, name) list — a primary-key scan
		// ascends — then indexed by ID unless that would be mostly holes.
		// The directory is the one owner of name uniqueness — no table has
		// an index to enforce it — so this is where a second row under one
		// name is found.
		d := &st.dicts[k]
		d.ids = make(map[string]int64)
		d.view.ids = []int64{}
		if spec.refCol > 0 {
			d.ref = make(map[int64]int64)
		}
		if err := scan(spec.table, func(id int64, row reldb.Row) error {
			name := row[1].Text()
			if first, dup := d.ids[name]; dup {
				return fmt.Errorf("datastore: %s rows %d and %d share the name %q", spec.table, first, id, name)
			}
			var ref int64
			if spec.refCol > 0 {
				ref = row[spec.refCol].Int64()
			}
			d.add(id, name, ref)
			return nil
		}); err != nil {
			return nil, err
		}
		if sparse := d.view; sparse.MaxID() <= int64(4*len(sparse.ids))+1024 {
			byID := make([]string, sparse.MaxID()+1)
			for i, id := range sparse.ids {
				byID[id] = sparse.names[i]
			}
			d.view = Dict{names: byID}
		}
	}
	// Register types root-first so the type system accepts children.
	types := make([]core.TypePath, 0, len(st.dicts[dictType].ids))
	for t := range st.dicts[dictType].ids {
		types = append(types, core.TypePath(t))
	}
	sort.Slice(types, func(i, j int) bool { return types[i].Depth() < types[j].Depth() })
	for _, t := range types {
		if err := st.types.Add(t); err != nil {
			return nil, err
		}
	}
	// It owns signature uniqueness the same way; the signatures are read
	// as a column: no Row is built for a focus.
	focus, _ := eng.Table("focus")
	st.focusIDs = make(map[string]int64, focus.Len())
	foci, err := focus.Blocks(math.MinInt64, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if err := foci.Each(func(b *reldb.ColumnBlock) error {
		ids, sigs := b.IDs(), b.Strings(2)
		for i := range b.Len() {
			id := ids.At(i)
			if first, dup := st.focusIDs[sigs[i]]; dup {
				return fmt.Errorf("datastore: foci %d and %d share the signature %q", first, id, sigs[i])
			}
			st.focusIDs[sigs[i]] = id
		}
		return nil
	}); err != nil {
		return nil, err
	}
	_ = scan("resource_attribute", func(_ int64, row reldb.Row) error { // noteAttr cannot fail
		st.noteAttr(row[2].Text(), row[3].Text())
		return nil
	})
	return st, nil
}

// noteAttr folds one resource_attribute row into the statistics.
func (st *nameState) noteAttr(attr, value string) {
	a := st.attrStats[attr]
	if a == nil {
		a = &attrStat{vals: make(map[string]struct{})}
		st.attrStats[attr] = a
	}
	a.rows++
	if !a.overflow {
		a.vals[value] = struct{}{}
		if len(a.vals) > maxAttrStatValues {
			a.overflow = true
		}
	}
}
