package datastore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// Store is PTDataStore: PerfTrack's interface to the underlying DBMS. It
// is safe for concurrent use: writers serialize on wmu (so a streamed
// PTdf load is atomic with respect to other writers), per-record state is
// guarded by mu, and reads go through the engine's reader lock. Lock
// ordering is always wmu → mu → engine; read paths never acquire mu or
// re-enter the engine from inside an engine scan callback.
type Store struct {
	eng reldb.Engine
	sql *sqldb.DB

	// UseClosureTables controls whether ancestor/descendant queries use the
	// resource_has_ancestor / resource_has_descendant tables (the paper's
	// design, default) or recompute by walking parent links (the ablation
	// baseline). Loading always maintains the tables.
	UseClosureTables bool

	// gen is the store generation, bumped after every mutation completes;
	// cache holds generation-stamped pr-filter results (see cache.go).
	// Together they make the GUI's repeated CountMatches/CountFamilyMatches
	// O(1) between writes without any risk of serving stale counts: a
	// reader that overlaps a mutation caches under the pre-mutation
	// generation, which the post-mutation bump discards.
	gen   atomic.Uint64
	cache *Cache[idSet]

	// wmu serializes mutating entry points against each other and against
	// whole-file transactional loads, without blocking readers.
	wmu sync.Mutex

	mu       sync.Mutex
	ins      inserter // mutation sink: the active load transaction, or nil for the engine
	types    *core.TypeSystem
	typeIDs  map[core.TypePath]int64
	resIDs   map[core.ResourceName]int64
	resNames map[int64]core.ResourceName
	resTypes map[int64]int64 // resource id -> focus_framework (type) id
	appIDs   map[string]int64
	execIDs  map[string]int64
	execApp  map[string]int64 // execution name -> application id
	metricID map[string]int64
	toolID   map[string]int64
	unitsID  map[string]int64
	focusIDs map[string]int64 // signature -> focus id

	// attrStats tracks per-attribute-name row counts and distinct-value
	// estimates for the query planner's cost model; see stats.go.
	attrStats map[string]*attrStat

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

// inserter is the mutation surface shared by the engine and a transaction;
// store inserts route through it so a PTdf load can run inside a Tx.
type inserter interface {
	Insert(table string, row reldb.Row) (int64, error)
}

// insert routes a row insert through the active load transaction when one
// is open, and straight to the engine otherwise. Callers hold s.mu.
func (s *Store) insert(table string, row reldb.Row) (int64, error) {
	if s.ins != nil {
		return s.ins.Insert(table, row)
	}
	return s.eng.Insert(table, row)
}

// Open attaches a store to a storage engine, creating and bootstrapping
// the schema if it is not present, and warming the name caches if it is.
func Open(eng reldb.Engine) (*Store, error) {
	s := &Store{
		eng:              eng,
		sql:              sqldb.Open(eng),
		cache:            NewCache[idSet](0),
		scanBytes:        obs.NewHistogram(segScanBytesBuckets),
		UseClosureTables: true,
		types:            core.NewTypeSystem(),
		typeIDs:          make(map[core.TypePath]int64),
		resIDs:           make(map[core.ResourceName]int64),
		resNames:         make(map[int64]core.ResourceName),
		resTypes:         make(map[int64]int64),
		appIDs:           make(map[string]int64),
		execIDs:          make(map[string]int64),
		execApp:          make(map[string]int64),
		metricID:         make(map[string]int64),
		toolID:           make(map[string]int64),
		unitsID:          make(map[string]int64),
		focusIDs:         make(map[string]int64),
		attrStats:        make(map[string]*attrStat),
	}
	s.scratch.New = func() any { return new(matScratch) }
	if !schemaExists(eng) {
		if err := createSchema(s.sql); err != nil {
			return nil, err
		}
		// §3.1: PerfTrack uses the type extension interface to load the
		// initial set of base types when a new database is initialized.
		for _, t := range core.BaseTypes() {
			if err := s.AddResourceType(t); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	// Existing store: create any tables added since it was initialized,
	// then warm the name caches.
	if err := migrateSchema(s.sql, eng); err != nil {
		return nil, err
	}
	if err := s.warmCaches(); err != nil {
		return nil, err
	}
	return s, nil
}

// Engine returns the underlying storage engine.
func (s *Store) Engine() reldb.Engine { return s.eng }

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
// that mutate the engine behind the store's back (raw SQL DML, direct
// engine inserts) must call it before querying again.
func (s *Store) InvalidateQueryCache() { s.bumpGen() }

// QueryEngineStats reports the pr-filter fast path's cache behaviour.
type QueryEngineStats struct {
	Generation   uint64
	CacheHits    uint64
	CacheMisses  uint64
	CacheEntries int
}

// QueryEngineStats snapshots the query engine counters.
func (s *Store) QueryEngineStats() QueryEngineStats {
	cs := s.cache.Stats()
	return QueryEngineStats{
		Generation:   s.gen.Load(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
		CacheEntries: cs.Entries,
	}
}

// SQL returns the SQL interface over the same data, for ad-hoc queries.
func (s *Store) SQL() *sqldb.DB { return s.sql }

// resetCachesLocked discards and rebuilds every in-memory name cache and
// the type system from the engine. The rollback path of a transactional
// load uses it: after the engine rows are undone, the caches must not
// retain IDs for rows that no longer exist. Callers hold s.mu.
func (s *Store) resetCachesLocked() error {
	s.types = core.NewTypeSystem()
	s.typeIDs = make(map[core.TypePath]int64)
	s.resIDs = make(map[core.ResourceName]int64)
	s.resNames = make(map[int64]core.ResourceName)
	s.resTypes = make(map[int64]int64)
	s.appIDs = make(map[string]int64)
	s.execIDs = make(map[string]int64)
	s.execApp = make(map[string]int64)
	s.metricID = make(map[string]int64)
	s.toolID = make(map[string]int64)
	s.unitsID = make(map[string]int64)
	s.focusIDs = make(map[string]int64)
	s.attrStats = make(map[string]*attrStat)
	return s.warmCaches()
}

// warmCaches rebuilds the in-memory name caches from an existing store.
func (s *Store) warmCaches() error {
	ffTab, _ := s.eng.Table("focus_framework")
	ffTab.Scan(func(_ int64, row reldb.Row) bool {
		tp := core.TypePath(row[1].Text())
		s.typeIDs[tp] = row[0].Int64()
		return true
	})
	// Register types root-first so the type system accepts children.
	var types []core.TypePath
	for t := range s.typeIDs {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i].Depth() < types[j].Depth() })
	for _, t := range types {
		if err := s.types.Add(t); err != nil {
			return err
		}
	}
	riTab, _ := s.eng.Table("resource_item")
	riTab.Scan(func(_ int64, row reldb.Row) bool {
		id := row[0].Int64()
		name := core.ResourceName(row[1].Text())
		s.resIDs[name] = id
		s.resNames[id] = name
		s.resTypes[id] = row[4].Int64()
		return true
	})
	warm := func(table string, cache map[string]int64) {
		t, _ := s.eng.Table(table)
		t.Scan(func(_ int64, row reldb.Row) bool {
			cache[row[1].Text()] = row[0].Int64()
			return true
		})
	}
	warm("application", s.appIDs)
	warm("execution", s.execIDs)
	exTab, _ := s.eng.Table("execution")
	exTab.Scan(func(_ int64, row reldb.Row) bool {
		s.execApp[row[1].Text()] = row[2].Int64()
		return true
	})
	warm("metric", s.metricID)
	warm("performance_tool", s.toolID)
	warm("units", s.unitsID)
	fTab, _ := s.eng.Table("focus")
	fTab.Scan(func(_ int64, row reldb.Row) bool {
		s.focusIDs[row[2].Text()] = row[0].Int64()
		return true
	})
	raTab, _ := s.eng.Table("resource_attribute")
	raTab.Scan(func(_ int64, row reldb.Row) bool {
		s.noteAttrLocked(row[2].Text(), row[3].Text())
		return true
	})
	return nil
}

// Types returns the type system view of the store.
func (s *Store) Types() *core.TypeSystem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.types
}

// AddResourceType registers a resource type (the extensible type system of
// §2.1). Parent levels must be registered first; re-adding is a no-op.
func (s *Store) AddResourceType(t core.TypePath) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addResourceTypeLocked(t)
}

func (s *Store) addResourceTypeLocked(t core.TypePath) error {
	if _, ok := s.typeIDs[t]; ok {
		return nil
	}
	if err := s.types.Add(t); err != nil {
		return err
	}
	parentID := reldb.Null()
	if p := t.Parent(); p != "" {
		parentID = reldb.Int(s.typeIDs[p])
	}
	id, err := s.insert("focus_framework", reldb.Row{
		reldb.Null(), reldb.Str(string(t)), parentID,
	})
	if err != nil {
		return err
	}
	s.typeIDs[t] = id
	return nil
}

// AddApplication registers an application; re-adding returns the existing
// ID.
func (s *Store) AddApplication(name string) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addApplicationLocked(name)
}

func (s *Store) addApplicationLocked(name string) (int64, error) {
	if id, ok := s.appIDs[name]; ok {
		return id, nil
	}
	if name == "" {
		return 0, fmt.Errorf("datastore: empty application name: %w", ErrBadSpec)
	}
	id, err := s.insert("application", reldb.Row{reldb.Null(), reldb.Str(name)})
	if err != nil {
		return 0, err
	}
	s.appIDs[name] = id
	return id, nil
}

// AddExecution registers an execution of an application, creating the
// application if needed.
func (s *Store) AddExecution(name, app string) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addExecutionLocked(name, app)
}

func (s *Store) addExecutionLocked(name, app string) (int64, error) {
	if id, ok := s.execIDs[name]; ok {
		// Idempotent re-add; redefining under a different application is a
		// conflict, not a silent aliasing.
		if owner, ok := s.execApp[name]; ok {
			if curID, ok := s.appIDs[app]; !ok || curID != owner {
				return 0, fmt.Errorf("datastore: execution %q already registered under a different application: %w",
					name, ErrExists)
			}
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
	id, err := s.insert("execution", reldb.Row{
		reldb.Null(), reldb.Str(name), reldb.Int(appID),
	})
	if err != nil {
		return 0, err
	}
	s.execIDs[name] = id
	s.execApp[name] = appID
	return id, nil
}

// lookupIn interns a name in one of the small lookup tables.
func (s *Store) lookupIn(table string, cache map[string]int64, name string) (int64, error) {
	if id, ok := cache[name]; ok {
		return id, nil
	}
	id, err := s.insert(table, reldb.Row{reldb.Null(), reldb.Str(name)})
	if err != nil {
		return 0, err
	}
	cache[name] = id
	return id, nil
}

// AddResource inserts a resource with the given full name and type,
// optionally scoped to an execution. Missing ancestor resources are
// created automatically with the corresponding type prefix. Re-adding an
// existing resource returns its ID.
func (s *Store) AddResource(name core.ResourceName, typ core.TypePath, exec string) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addResourceLocked(name, typ, exec)
}

func (s *Store) addResourceLocked(name core.ResourceName, typ core.TypePath, exec string) (int64, error) {
	if id, ok := s.resIDs[name]; ok {
		// Idempotent re-add; redefining with a different (known) type is a
		// conflict.
		if wantID, known := s.typeIDs[typ]; known {
			if tid, ok := s.resTypes[id]; ok && tid != wantID {
				return 0, fmt.Errorf("datastore: resource %q already registered with a different type: %w",
					name, ErrExists)
			}
		}
		return id, nil
	}
	if err := s.types.CheckResource(name, typ); err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
	}
	var execID reldb.Value = reldb.Null()
	if exec != "" {
		id, ok := s.execIDs[exec]
		if !ok {
			return 0, fmt.Errorf("datastore: resource %q references unknown execution %q: %w", name, exec, ErrNotFound)
		}
		execID = reldb.Int(id)
	}
	// Create missing ancestors, root first, with the matching type prefix.
	parentID := reldb.Null()
	if p := name.Parent(); p != "" {
		pid, ok := s.resIDs[p]
		if !ok {
			var err error
			pid, err = s.addResourceLocked(p, typ.Parent(), exec)
			if err != nil {
				return 0, err
			}
		}
		parentID = reldb.Int(pid)
	}
	id, err := s.insert("resource_item", reldb.Row{
		reldb.Null(),
		reldb.Str(string(name)),
		reldb.Str(name.BaseName()),
		parentID,
		reldb.Int(s.typeIDs[typ]),
		execID,
	})
	if err != nil {
		return 0, err
	}
	s.resIDs[name] = id
	s.resNames[id] = name
	s.resTypes[id] = s.typeIDs[typ]
	// Maintain the closure tables: link this resource to every ancestor.
	for _, anc := range name.Ancestors() {
		aid := s.resIDs[anc]
		if _, err := s.insert("resource_has_ancestor", reldb.Row{
			reldb.Int(id), reldb.Int(aid),
		}); err != nil {
			return 0, err
		}
		if _, err := s.insert("resource_has_descendant", reldb.Row{
			reldb.Int(aid), reldb.Int(id),
		}); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// SetResourceAttribute attaches a string attribute to a resource.
func (s *Store) SetResourceAttribute(name core.ResourceName, attr, value string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setResourceAttributeLocked(name, attr, value)
}

func (s *Store) setResourceAttributeLocked(name core.ResourceName, attr, value string) error {
	id, ok := s.resIDs[name]
	if !ok {
		return fmt.Errorf("datastore: no resource %q: %w", name, ErrNotFound)
	}
	_, err := s.insert("resource_attribute", reldb.Row{
		reldb.Null(), reldb.Int(id), reldb.Str(attr), reldb.Str(value), reldb.Str("string"),
	})
	if err == nil {
		s.noteAttrLocked(attr, value)
	}
	return err
}

// AddResourceConstraint records a resource-valued attribute: r2 is an
// attribute of r1 (e.g. the node a process ran on).
func (s *Store) AddResourceConstraint(r1, r2 core.ResourceName) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addResourceConstraintLocked(r1, r2)
}

func (s *Store) addResourceConstraintLocked(r1, r2 core.ResourceName) error {
	id1, ok := s.resIDs[r1]
	if !ok {
		return fmt.Errorf("datastore: no resource %q: %w", r1, ErrNotFound)
	}
	id2, ok := s.resIDs[r2]
	if !ok {
		return fmt.Errorf("datastore: no resource %q: %w", r2, ErrNotFound)
	}
	_, err := s.insert("resource_constraint", reldb.Row{
		reldb.Null(), reldb.Int(id1), reldb.Int(id2),
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
	ids := make([]int64, 0, len(ctx.Resources))
	for _, r := range ctx.Resources {
		id, ok := s.resIDs[r]
		if !ok {
			return 0, fmt.Errorf("datastore: context references unknown resource %q: %w", r, ErrNotFound)
		}
		ids = append(ids, id)
	}
	sig := focusSignature(ctx.Type, ids)
	if id, ok := s.focusIDs[sig]; ok {
		return id, nil
	}
	fid, err := s.insert("focus", reldb.Row{
		reldb.Null(), reldb.Str(ctx.Type.String()), reldb.Str(sig),
	})
	if err != nil {
		return 0, err
	}
	seen := make(map[int64]bool, len(ids))
	for _, rid := range ids {
		if seen[rid] {
			continue
		}
		seen[rid] = true
		if _, err := s.insert("focus_has_resource", reldb.Row{
			reldb.Int(fid), reldb.Int(rid),
		}); err != nil {
			return 0, err
		}
	}
	s.focusIDs[sig] = fid
	return fid, nil
}

// AddPerfResult stores a performance result with its contexts. The
// execution and all context resources must already exist.
func (s *Store) AddPerfResult(pr *core.PerformanceResult) (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addPerfResultLocked(pr)
}

func (s *Store) addPerfResultLocked(pr *core.PerformanceResult) (int64, error) {
	if err := pr.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
	}
	execID, ok := s.execIDs[pr.Execution]
	if !ok {
		return 0, fmt.Errorf("datastore: unknown execution %q: %w", pr.Execution, ErrNotFound)
	}
	metricID, err := s.lookupIn("metric", s.metricID, pr.Metric)
	if err != nil {
		return 0, err
	}
	tool := pr.Tool
	if tool == "" {
		tool = "unknown"
	}
	toolID, err := s.lookupIn("performance_tool", s.toolID, tool)
	if err != nil {
		return 0, err
	}
	units := pr.Units
	if units == "" {
		units = "unitless"
	}
	unitsID, err := s.lookupIn("units", s.unitsID, units)
	if err != nil {
		return 0, err
	}
	rid, err := s.insert("performance_result", reldb.Row{
		reldb.Null(), reldb.Int(execID), reldb.Int(metricID),
		reldb.Int(toolID), reldb.Int(unitsID), reldb.Float(pr.Value),
	})
	if err != nil {
		return 0, err
	}
	// Duplicate contexts within one result collapse to a single focus link.
	seenFoci := make(map[int64]bool, len(pr.Contexts))
	for _, ctx := range pr.Contexts {
		fid, err := s.internFocus(ctx)
		if err != nil {
			return 0, err
		}
		if seenFoci[fid] {
			continue
		}
		seenFoci[fid] = true
		if _, err := s.insert("result_has_focus", reldb.Row{
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
