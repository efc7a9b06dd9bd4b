package datastore

import (
	"encoding/binary"
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
	focusIDs  map[string]int64 // focus key (focusKey) → focus ID
	foci      int64            // focus rows, linked or not
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
// or will roll back — a focus key among them, whose focus row, like
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

// resourceIDs appends to dst the IDs of resource names, resolved in one
// critical section, skipping unknown names; miss is the index of the
// first one skipped, or -1.
func (n *names) resourceIDs(dst []int64, rs []core.ResourceName) (ids []int64, miss int) {
	ids, miss = slices.Grow(dst, len(rs)), -1
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

// focusID resolves a focus key; the lookup converts key without a copy.
func (n *names) focusID(key []byte) (int64, bool) {
	n.mu.RLock()
	id, ok := n.focusIDs[string(key)]
	n.mu.RUnlock()
	return id, ok
}

// addFocus records a focus row the writer just inserted.
func (n *names) addFocus(key []byte, id int64) {
	n.mu.Lock()
	n.focusIDs[string(key)] = id
	n.foci++
	n.mu.Unlock()
}

// focusKey appends a focus's identity to dst: its type, then the uvarint
// deltas of its resource IDs, which must ascend without repeats — the
// order of its focus_has_resource rows. The key lives only in memory.
func focusKey(dst []byte, ft core.FocusType, ids []int64) []byte {
	dst = append(dst, byte(ft))
	prev := int64(0)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id-prev))
		prev = id
	}
	return dst
}

// addAttr records a resource_attribute row the writer just inserted.
func (n *names) addAttr(attr, value string) {
	n.mu.Lock()
	n.noteAttr(attr, value)
	n.mu.Unlock()
}

// statistics snapshots what the planner's estimates read: distinct
// names per table and the per-attribute row and value counts.
func (n *names) statistics() (distinct map[string]int64, attrs []AttributeStat) {
	n.mu.RLock()
	distinct = map[string]int64{
		"resource_attribute": int64(len(n.attrStats)),
		"focus":              n.foci,
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
	// Every table is read as blocks: no Row is built.
	scan := func(table string, fn func(b *reldb.ColumnBlock) error) error {
		t, _ := eng.Table(table) // Open created or migrated every schema table
		blocks, err := t.Blocks(math.MinInt64, math.MaxInt64)
		if err != nil {
			return err
		}
		return blocks.Each(fn)
	}
	for k, spec := range dictSpecs {
		// Collected as a sorted (ID, name) list — a block pass ascends in
		// primary key — then indexed by ID unless that would be mostly holes.
		// The directory is the one owner of name uniqueness — no table has
		// an index to enforce it — so this is where a second row under one
		// name is found.
		d := &st.dicts[k]
		d.ids = make(map[string]int64)
		d.view.ids = []int64{}
		if spec.refCol > 0 {
			d.ref = make(map[int64]int64)
		}
		if err := scan(spec.table, func(b *reldb.ColumnBlock) error {
			ids, names := b.IDs(), b.Strings(1)
			for i, name := range names {
				id := ids.At(i)
				if first, dup := d.ids[name]; dup {
					return fmt.Errorf("datastore: %s rows %d and %d share the name %q", spec.table, first, id, name)
				}
				var ref int64
				if spec.refCol > 0 {
					ref = b.Ints(spec.refCol).At(i)
				}
				d.add(id, name, ref)
			}
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
	// It owns focus uniqueness the same way. A focus is its type and its
	// links, which a block pass hands over grouped by focus, resources
	// ascending; one without links — a crash between the two tables' log
	// flushes leaves it — is counted but not keyed, for every context
	// names a resource.
	var fids []int64
	var ftypes []core.FocusType
	if err := scan("focus", func(b *reldb.ColumnBlock) error {
		for i, name := range b.Strings(1) {
			ft, err := core.ParseFocusType(name)
			if err != nil {
				return fmt.Errorf("datastore: focus %d: %w", b.IDs().At(i), err)
			}
			fids, ftypes = append(fids, b.IDs().At(i)), append(ftypes, ft)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	st.foci, st.focusIDs = int64(len(fids)), make(map[string]int64, len(fids))
	var members []int64
	var key []byte
	owner, next := int64(-1), 0 // fids[next:] are the foci the links have not passed
	keyFocus := func() error {
		for next < len(fids) && fids[next] < owner {
			next++
		}
		if next == len(fids) || fids[next] != owner {
			return nil // no links yet, or links of no focus row: a crash mid-delete leaves them
		}
		key = focusKey(key[:0], ftypes[next], members)
		if first, dup := st.focusIDs[string(key)]; dup {
			return fmt.Errorf("datastore: foci %d and %d have the same type and resources", first, owner)
		}
		st.focusIDs[string(key)] = owner
		return nil
	}
	if err := scan("focus_has_resource", func(b *reldb.ColumnBlock) error {
		fs, rs := b.Ints(0), b.Ints(1)
		for i := range b.Len() {
			if fs.At(i) != owner {
				if err := keyFocus(); err != nil {
					return err
				}
				owner, members = fs.At(i), members[:0]
			}
			members = append(members, rs.At(i))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := keyFocus(); err != nil {
		return nil, err
	}
	if err := scan("resource_attribute", func(b *reldb.ColumnBlock) error {
		names, values := b.Strings(2), b.Strings(3)
		for i, name := range names {
			st.noteAttr(name, values[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
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
