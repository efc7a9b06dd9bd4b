package datastore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/reldb"
)

// Store is PTDataStore: PerfTrack's interface to the underlying DBMS. It
// is safe for concurrent use: writers serialize on wmu (so a streamed
// PTdf load is atomic with respect to other writers), reads go through
// the engine's reader lock, and every name is resolved by the names
// directory, whose lock is a leaf. Lock ordering is wmu → engine; read
// paths never re-enter the engine from inside an engine scan callback.
type Store struct {
	eng *reldb.DB

	// UseClosureTables controls whether ancestor/descendant queries use the
	// resource_has_ancestor / resource_has_descendant tables (the paper's
	// design, default) or recompute by walking parent links (the ablation
	// baseline). Loading always maintains the tables.
	UseClosureTables bool

	// gen is the store generation, bumped after every mutation completes;
	// cache holds generation-stamped pr-filter results (see cache.go).
	// Together they make the GUI's repeated CountMatchesCtx and
	// CountFamilyMatchesCtx O(1) between writes without any risk of serving
	// stale counts: a reader that overlaps a mutation caches under the
	// pre-mutation generation, which the post-mutation bump discards.
	gen   atomic.Uint64
	cache *Cache[IDSet]

	// wmu serializes mutating entry points against each other and against
	// whole-file transactional loads, without blocking readers. It guards
	// tx, the open write transaction every insert goes into.
	wmu sync.Mutex
	tx  *reldb.Tx

	// names resolves every name ↔ ID; see names.go.
	names names

	// tel counts store operations for the observability layer; see
	// telemetry.go.
	tel telemetry

	// scanBytes distributes columnar bytes touched per segment range
	// scan; the service layer bridges it into its metrics registry.
	scanBytes *obs.Histogram

	// scratch pools the materializer's per-chunk working memory
	// (*matScratch); at 100k-result chunks it tops 10 MB per call, and
	// reuse roughly halves a materialize's allocation and GC-assist cost.
	scratch sync.Pool
}

// segScanBytesBuckets spans 4 KiB point scans to multi-GiB full sweeps.
var segScanBytesBuckets = []float64{
	4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// SegmentScanBytes is the histogram of columnar bytes read per segment
// range scan.
func (s *Store) SegmentScanBytes() *obs.Histogram { return s.scanBytes }

// write runs apply — the add*Locked calls of one public call or one
// batch — as one engine transaction in one writer critical section:
// begin, apply, then commit, or on failure roll back and reload the names
// directory, which apply updated in place. The store generation bumps
// once, after the outcome, whatever it is.
func (s *Store) write(apply func() error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.tx = s.eng.Begin()
	defer func() { s.tx = nil }()
	err := apply()
	if err == nil {
		err = s.tx.Commit()
	}
	if err != nil {
		return s.rollbackLoad(s.tx, err)
	}
	return nil
}

// writeID is write for an apply that returns the ID of what it added.
func (s *Store) writeID(apply func() (int64, error)) (int64, error) {
	var id int64
	err := s.write(func() (err error) {
		id, err = apply()
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Open attaches a store to a storage engine, creating and bootstrapping
// the schema if it is not present, and loading the names directory from
// the rows if it is.
func Open(e reldb.Engine) (*Store, error) {
	eng := e.DB()
	s := &Store{
		eng:              eng,
		cache:            NewCache[IDSet](0),
		scanBytes:        obs.NewHistogram(segScanBytesBuckets),
		UseClosureTables: true,
	}
	s.scratch.New = func() any { return new(matScratch) }
	fresh := !schemaExists(eng)
	if err := ensureSchema(eng); err != nil {
		return nil, err
	}
	if err := s.reloadNames(); err != nil {
		return nil, err
	}
	if fresh {
		// §3.1: PerfTrack uses the type extension interface to load the
		// initial set of base types when a new database is initialized.
		for _, t := range core.BaseTypes() {
			if err := s.AddResourceType(t); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// reloadNames rebuilds the names directory from the rows and swaps it in.
// Callers are Open or hold s.wmu.
func (s *Store) reloadNames() error {
	st, err := loadNames(s.eng)
	if err != nil {
		return err
	}
	s.names.swap(st)
	return nil
}

// Engine returns the underlying storage engine.
func (s *Store) Engine() *reldb.DB { return s.eng }

// bumpGen advances the store generation, invalidating all cached
// pr-filter results. Every mutating entry point calls it (deferred, so
// the bump happens after the mutation is fully applied), including no-op
// re-adds: over-invalidation is always safe, and bumping after completion
// means a concurrent reader can never cache a partially-applied state
// under the new generation.
func (s *Store) bumpGen() { s.gen.Add(1) }

// Generation returns the current store generation. It increases on every
// mutation; cached query results are only served within one generation.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// InvalidateQueryCache discards all cached pr-filter results. Callers
// that mutate the engine behind the store's back (direct engine writes)
// must call it before querying again.
func (s *Store) InvalidateQueryCache() { s.bumpGen() }

// QueryEngineStats reports the pr-filter fast path's cache behaviour.
type QueryEngineStats struct {
	Generation   uint64
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
	CacheBytes   int64 // the resident ID sets' allocations plus per-entry overhead
}

// QueryEngineStats snapshots the query engine counters.
func (s *Store) QueryEngineStats() QueryEngineStats {
	cs := s.cache.Stats()
	return QueryEngineStats{
		Generation:   s.gen.Load(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
		CacheEntries: cs.Entries,
		CacheBytes:   cs.Bytes,
	}
}

// Types returns a copy of the store's type system.
func (s *Store) Types() *core.TypeSystem { return s.names.typeSystem() }

// AddResourceType registers a resource type (the extensible type system of
// §2.1). Parent levels must be registered first; re-adding is a no-op.
func (s *Store) AddResourceType(t core.TypePath) error {
	return s.write(func() error { return s.addResourceTypeLocked(t) })
}

// The add*Locked functions apply one record into s.tx; callers are
// inside write.

func (s *Store) addResourceTypeLocked(t core.TypePath) error {
	if _, ok := s.names.id(dictType, string(t)); ok {
		return nil
	}
	if err := s.names.declareType(t); err != nil {
		return err
	}
	parentID := reldb.Null()
	if p := t.Parent(); p != "" {
		pid, _ := s.names.id(dictType, string(p))
		parentID = reldb.Int(pid)
	}
	id, err := s.tx.Insert("focus_framework", reldb.Row{
		reldb.Null(), reldb.Str(string(t)), parentID,
	})
	if err != nil {
		return err
	}
	s.names.add(dictType, id, string(t), 0)
	return nil
}

func (s *Store) addApplicationLocked(name string) (int64, error) {
	if name == "" {
		return 0, fmt.Errorf("datastore: empty application name: %w", ErrBadSpec)
	}
	return s.intern(dictApplication, name)
}

// AddExecution registers an execution of an application, creating the
// application if needed.
func (s *Store) AddExecution(name, app string) (int64, error) {
	return s.writeID(func() (int64, error) { return s.addExecutionLocked(name, app) })
}

func (s *Store) addExecutionLocked(name, app string) (int64, error) {
	if id, ok := s.names.id(dictExecution, name); ok {
		// Idempotent re-add; redefining under a different application is a
		// conflict, not a silent aliasing.
		owner, _ := s.names.ref(dictExecution, id)
		if appID, ok := s.names.id(dictApplication, app); !ok || appID != owner {
			return 0, fmt.Errorf("datastore: execution %q already registered under a different application: %w",
				name, ErrExists)
		}
		return id, nil
	}
	if name == "" {
		return 0, fmt.Errorf("datastore: empty execution name: %w", ErrBadSpec)
	}
	appID, err := s.addApplicationLocked(app)
	if err != nil {
		return 0, err
	}
	id, err := s.tx.Insert("execution", reldb.Row{
		reldb.Null(), reldb.Str(name), reldb.Int(appID),
	})
	if err != nil {
		return 0, err
	}
	s.names.add(dictExecution, id, name, appID)
	return id, nil
}

// intern returns the ID of a name in one of the (id, name) dictionary
// tables, inserting the row if the name is new.
func (s *Store) intern(k int, name string) (int64, error) {
	if id, ok := s.names.id(k, name); ok {
		return id, nil
	}
	id, err := s.tx.Insert(dictSpecs[k].table, reldb.Row{reldb.Null(), reldb.Str(name)})
	if err != nil {
		return 0, err
	}
	s.names.add(k, id, name, 0)
	return id, nil
}

// AddResource inserts a resource with the given full name and type,
// optionally scoped to an execution. Missing ancestor resources are
// created automatically with the corresponding type prefix. Re-adding an
// existing resource returns its ID.
func (s *Store) AddResource(name core.ResourceName, typ core.TypePath, exec string) (int64, error) {
	return s.writeID(func() (int64, error) { return s.addResourceLocked(name, typ, exec) })
}

func (s *Store) addResourceLocked(name core.ResourceName, typ core.TypePath, exec string) (int64, error) {
	typeID, known := s.names.id(dictType, string(typ))
	if id, ok := s.names.id(dictResource, string(name)); ok {
		// Idempotent re-add; redefining with a different (known) type is a
		// conflict.
		if have, _ := s.names.ref(dictResource, id); known && have != typeID {
			return 0, fmt.Errorf("datastore: resource %q already registered with a different type: %w",
				name, ErrExists)
		}
		return id, nil
	}
	if err := s.names.checkResource(name, typ); err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
	}
	var execID reldb.Value = reldb.Null()
	if exec != "" {
		id, ok := s.names.id(dictExecution, exec)
		if !ok {
			return 0, fmt.Errorf("datastore: resource %q references unknown execution %q: %w", name, exec, ErrNotFound)
		}
		execID = reldb.Int(id)
	}
	// Create missing ancestors, root first, with the matching type prefix.
	parentID := reldb.Null()
	if p := name.Parent(); p != "" {
		pid, ok := s.names.id(dictResource, string(p))
		if !ok {
			var err error
			pid, err = s.addResourceLocked(p, typ.Parent(), exec)
			if err != nil {
				return 0, err
			}
		}
		parentID = reldb.Int(pid)
	}
	id, err := s.tx.Insert("resource_item", reldb.Row{
		reldb.Null(),
		reldb.Str(string(name)),
		reldb.Str(name.BaseName()),
		parentID,
		reldb.Int(typeID),
		execID,
	})
	if err != nil {
		return 0, err
	}
	s.names.add(dictResource, id, string(name), typeID)
	// Maintain the closure tables: link this resource to every ancestor.
	ancestors, _ := s.names.resourceIDs(name.Ancestors())
	for _, aid := range ancestors {
		if _, err := s.tx.Insert("resource_has_ancestor", reldb.Row{
			reldb.Int(id), reldb.Int(aid),
		}); err != nil {
			return 0, err
		}
		if _, err := s.tx.Insert("resource_has_descendant", reldb.Row{
			reldb.Int(aid), reldb.Int(id),
		}); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// SetResourceAttribute attaches a string attribute to a resource.
func (s *Store) SetResourceAttribute(name core.ResourceName, attr, value string) error {
	return s.write(func() error { return s.setResourceAttributeLocked(name, attr, value) })
}

func (s *Store) setResourceAttributeLocked(name core.ResourceName, attr, value string) error {
	id, ok := s.names.id(dictResource, string(name))
	if !ok {
		return fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	_, err := s.tx.Insert("resource_attribute", reldb.Row{
		reldb.Null(), reldb.Int(id), reldb.Str(attr), reldb.Str(value), reldb.Str("string"),
	})
	if err == nil {
		s.names.addAttr(attr, value)
	}
	return err
}

// AddResourceConstraint records a resource-valued attribute: r2 is an
// attribute of r1 (e.g. the node a process ran on).
func (s *Store) AddResourceConstraint(r1, r2 core.ResourceName) error {
	return s.write(func() error { return s.addResourceConstraintLocked(r1, r2) })
}

func (s *Store) addResourceConstraintLocked(r1, r2 core.ResourceName) error {
	pair := []core.ResourceName{r1, r2}
	ids, miss := s.names.resourceIDs(pair)
	if miss >= 0 {
		return fmt.Errorf("datastore: no resource %q: %w", pair[miss], ErrNotFound)
	}
	_, err := s.tx.Insert("resource_constraint", reldb.Row{
		reldb.Null(), reldb.Int(ids[0]), reldb.Int(ids[1]),
	})
	return err
}

// focusSignature canonically identifies a context for deduplication: a
// single context can apply to multiple performance results.
func focusSignature(ft core.FocusType, ids []int64) string {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteString(ft.String())
	for _, id := range ids {
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(id, 10))
	}
	return b.String()
}

// internFocus returns the focus ID for a context, creating the focus and
// its focus_has_resource rows if it is new.
func (s *Store) internFocus(ctx core.Context) (int64, error) {
	ids, miss := s.names.resourceIDs(ctx.Resources)
	if miss >= 0 {
		return 0, fmt.Errorf("datastore: context references unknown resource %q: %w", ctx.Resources[miss], ErrNotFound)
	}
	sig := focusSignature(ctx.Type, ids)
	if id, ok := s.names.focusID(sig); ok {
		return id, nil
	}
	fid, err := s.tx.Insert("focus", reldb.Row{
		reldb.Null(), reldb.Str(ctx.Type.String()), reldb.Str(sig),
	})
	if err != nil {
		return 0, err
	}
	for i, rid := range ids {
		if i > 0 && rid == ids[i-1] { // focusSignature sorted them
			continue
		}
		if _, err := s.tx.Insert("focus_has_resource", reldb.Row{
			reldb.Int(fid), reldb.Int(rid),
		}); err != nil {
			return 0, err
		}
	}
	s.names.addFocus(sig, fid)
	return fid, nil
}

// AddPerfResult stores a performance result with its contexts. The
// execution and all context resources must already exist.
func (s *Store) AddPerfResult(pr *core.PerformanceResult) (int64, error) {
	return s.writeID(func() (int64, error) { return s.addPerfResultLocked(pr) })
}

func (s *Store) addPerfResultLocked(pr *core.PerformanceResult) (int64, error) {
	if err := pr.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
	}
	exec, ok := s.names.id(dictExecution, pr.Execution)
	if !ok {
		return 0, fmt.Errorf("datastore: unknown execution %q: %w", pr.Execution, ErrNotFound)
	}
	metric, err := s.intern(dictMetric, pr.Metric)
	if err != nil {
		return 0, err
	}
	tool, err := s.intern(dictTool, cmp.Or(pr.Tool, "unknown"))
	if err != nil {
		return 0, err
	}
	units, err := s.intern(dictUnits, cmp.Or(pr.Units, "unitless"))
	if err != nil {
		return 0, err
	}
	rid, err := s.tx.Insert("performance_result", reldb.Row{
		reldb.Null(), reldb.Int(exec), reldb.Int(metric),
		reldb.Int(tool), reldb.Int(units), reldb.Float(pr.Value),
	})
	if err != nil {
		return 0, err
	}
	// Duplicate contexts within one result collapse to a single focus link.
	var few [4]int64 // results carry a context or two: no allocation
	linked := few[:0]
	for _, ctx := range pr.Contexts {
		fid, err := s.internFocus(ctx)
		if err != nil {
			return 0, err
		}
		if slices.Contains(linked, fid) {
			continue
		}
		linked = append(linked, fid)
		if _, err := s.tx.Insert("result_has_focus", reldb.Row{
			reldb.Int(rid), reldb.Int(fid),
		}); err != nil {
			return 0, err
		}
	}
	return rid, nil
}

// Stats summarizes the store for Table 1 style reporting.
type Stats struct {
	Applications int64
	Executions   int64
	Resources    int64
	Attributes   int64
	Results      int64
	Metrics      int64
	Foci         int64
	DataBytes    int64
}

// Stats reports current row counts and data volume.
func (s *Store) Stats() Stats {
	count := func(table string) int64 {
		t, ok := s.eng.Table(table)
		if !ok {
			return 0
		}
		return int64(t.Len())
	}
	return Stats{
		Applications: count("application"),
		Executions:   count("execution"),
		Resources:    count("resource_item"),
		Attributes:   count("resource_attribute"),
		Results:      count("performance_result"),
		Metrics:      count("metric"),
		Foci:         count("focus"),
		DataBytes:    s.eng.Stats().LogicalBytes(),
	}
}
