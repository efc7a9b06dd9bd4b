package datastore

import (
	"fmt"
	"sort"

	"perftrack/internal/reldb"
)

// Planner statistics. The cost-based planner (internal/planner) chooses
// between attribute-index scans, cached ID-set intersection, zone-map
// segment scans, and full scans using row counts, distinct-value
// estimates, and segment coverage. The numbers are computed on demand
// from the name caches the store already maintains (warmCaches rebuilds
// them from the rows on open), never stored, and served over the wire
// via GET /v1/stats.

// maxAttrStatValues caps the per-attribute distinct-value set. Past the
// cap the count becomes a lower-bound estimate, which is all the cost
// model needs (it only distinguishes selective from unselective keys).
const maxAttrStatValues = 1024

// attrStat accumulates one attribute name's statistics. Maintained under
// s.mu by the sole resource_attribute insert path and rebuilt with the
// other caches on warm start and rollback.
type attrStat struct {
	rows     int64
	vals     map[string]struct{}
	overflow bool
}

// noteAttrLocked folds one resource_attribute row into the statistics.
// Callers hold s.mu.
func (s *Store) noteAttrLocked(attr, value string) {
	st := s.attrStats[attr]
	if st == nil {
		st = &attrStat{vals: make(map[string]struct{})}
		s.attrStats[attr] = st
	}
	st.rows++
	if !st.overflow {
		st.vals[value] = struct{}{}
		if len(st.vals) > maxAttrStatValues {
			st.overflow = true
		}
	}
}

// TableStat describes one schema table for the planner: total rows, the
// number of distinct logical keys (names, for the interned dictionary
// tables), and how many rows are resident in scannable columnar segments.
type TableStat struct {
	Table        string `json:"table"`
	Rows         int64  `json:"rows"`
	DistinctKeys int64  `json:"distinct_keys,omitempty"`
	SegmentRows  int64  `json:"segment_rows,omitempty"`
}

// AttributeStat describes one attribute name: how many resource_attribute
// rows carry it and (a lower bound on) its distinct values.
type AttributeStat struct {
	Name     string `json:"name"`
	Rows     int64  `json:"rows"`
	Distinct int64  `json:"distinct"`
}

// TableStatistics is a planner-facing statistics snapshot.
type TableStatistics struct {
	Generation uint64          `json:"generation"`
	Tables     []TableStat     `json:"tables"`
	Attributes []AttributeStat `json:"attributes,omitempty"`
}

// TableStat returns one table's entry, or a zero value when absent.
func (ts TableStatistics) TableStat(name string) TableStat {
	for _, t := range ts.Tables {
		if t.Table == name {
			return t
		}
	}
	return TableStat{}
}

// AttributeStat returns one attribute's entry and whether it is known.
func (ts TableStatistics) AttributeStat(name string) (AttributeStat, bool) {
	for _, a := range ts.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return AttributeStat{}, false
}

// TableStatistics snapshots the live planner statistics: engine row
// counts, distinct-key counts from the name caches, per-attribute
// statistics, and segment-resident rows from the compaction state.
func (s *Store) TableStatistics() TableStatistics {
	s.mu.Lock()
	distinct := map[string]int64{
		"application":        int64(len(s.appIDs)),
		"execution":          int64(len(s.execIDs)),
		"focus_framework":    int64(len(s.typeIDs)),
		"resource_item":      int64(len(s.resIDs)),
		"resource_attribute": int64(len(s.attrStats)),
		"metric":             int64(len(s.metricID)),
		"performance_tool":   int64(len(s.toolID)),
		"units":              int64(len(s.unitsID)),
		"focus":              int64(len(s.focusIDs)),
	}
	attrs := make([]AttributeStat, 0, len(s.attrStats))
	for name, st := range s.attrStats {
		attrs = append(attrs, AttributeStat{
			Name: name, Rows: st.rows, Distinct: int64(len(st.vals)),
		})
	}
	s.mu.Unlock()
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })

	// Only scannable segments count: a dirty or unordered table serves
	// every read from the B-tree until the next checkpoint rebuilds it.
	segRows := map[string]int64{}
	if sv, ok := s.eng.(interface{ SegmentStats() reldb.SegmentStats }); ok {
		for _, t := range sv.SegmentStats().Tables {
			if !t.Dirty && !t.Unordered {
				segRows[t.Table] = t.Rows
			}
		}
	}
	out := TableStatistics{Generation: s.gen.Load(), Attributes: attrs}
	for _, name := range tableNames {
		tab, ok := s.eng.Table(name)
		if !ok {
			continue
		}
		out.Tables = append(out.Tables, TableStat{
			Table:        name,
			Rows:         int64(tab.Len()),
			DistinctKeys: distinct[name],
			SegmentRows:  segRows[name],
		})
	}
	return out
}

// --- planner access-path surface ---

// Table exposes one engine table for read-only planner access paths
// (point lookups, index scans, PK-range scans). Writers must go through
// the record-load path; the planner only reads.
func (s *Store) Table(name string) (*reldb.Table, bool) {
	return s.eng.Table(name)
}

// DictNames loads an ID → name dictionary table (execution, metric,
// performance_tool, units, application) into a map in one scan.
func (s *Store) DictNames(table string) (map[int64]string, error) {
	return s.dictNames(table)
}

// LookupDict resolves a name in one of the interned dictionary caches
// without touching the engine. ok is false for unknown names and
// non-dictionary tables.
func (s *Store) LookupDict(table, name string) (id int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cache map[string]int64
	switch table {
	case "application":
		cache = s.appIDs
	case "execution":
		cache = s.execIDs
	case "metric":
		cache = s.metricID
	case "performance_tool":
		cache = s.toolID
	case "units":
		cache = s.unitsID
	default:
		return 0, false
	}
	id, ok = cache[name]
	return id, ok
}

// ExecutionResultIDs returns the sorted performance_result IDs of one
// execution via the execution_id index.
func (s *Store) ExecutionResultIDs(exec string) ([]int64, error) {
	id, ok := s.LookupDict("execution", exec)
	if !ok {
		return nil, fmt.Errorf("datastore: unknown execution %q: %w", exec, ErrNotFound)
	}
	tab, ok := s.eng.Table("performance_result")
	if !ok {
		return nil, fmt.Errorf("datastore: no performance_result table: %w", ErrNotFound)
	}
	var ids []int64
	if err := tab.IndexScan("performance_result_exec", []reldb.Value{reldb.Int(id)},
		func(rid int64, _ reldb.Row) bool {
			ids = append(ids, rid)
			return true
		}); err != nil {
		return nil, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Blocks opens the block source of one hot table (performance_result,
// result_has_focus, focus_has_resource) for first-primary-key values in
// [lo, hi] — the one bulk read path the planner and the materializer
// share on every engine — and records the segment scan it implies, if
// any, in the store telemetry.
func (s *Store) Blocks(table string, lo, hi int64) (*reldb.BlockScan, error) {
	tab, ok := s.eng.Table(table)
	if !ok {
		return nil, fmt.Errorf("datastore: no %s table: %w", table, ErrNotFound)
	}
	scan, err := tab.Blocks(lo, hi)
	if err != nil {
		return nil, err
	}
	if scan.Segmented() {
		rows := 0
		for _, b := range scan.Segments {
			rows += b.Len()
		}
		s.tel.segmentScans.Add(1)
		s.tel.segmentRowsScanned.Add(uint64(rows))
		s.tel.zoneMapPrunes.Add(uint64(scan.Pruned))
		s.scanBytes.Observe(float64(scan.Bytes))
	}
	return scan, nil
}
