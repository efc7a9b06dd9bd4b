package datastore

import (
	"fmt"
	"slices"

	"perftrack/internal/reldb"
)

// Planner statistics. The cost-based planner (internal/planner) chooses
// between attribute-index scans, cached ID-set intersection, zone-map
// segment scans, and full scans using row counts, distinct-value
// estimates, and segment coverage. The numbers are computed on demand
// from the names directory (loadNames builds it from the rows), never
// stored, and served over the wire via GET /v1/stats.

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
// counts, distinct-key counts and per-attribute statistics from the names
// directory, and segment-resident rows from the compaction state.
func (s *Store) TableStatistics() TableStatistics {
	distinct, attrs := s.names.statistics()

	segRows := map[string]int64{}
	for _, t := range s.eng.SegmentStats().Tables {
		segRows[t.Table] = t.Rows
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

// Dict returns the ID → name view of a dictionary table (application,
// execution, metric, performance_tool, units, focus_framework,
// resource_item): take it once per query and read it per value without a
// lock. Any other table yields an empty view.
func (s *Store) Dict(table string) Dict {
	if k := dictOf(table); k >= 0 {
		return s.names.dict(k)
	}
	return Dict{}
}

// LookupDict resolves a name in one of the dictionary tables without
// touching the engine. ok is false for unknown names and non-dictionary
// tables.
func (s *Store) LookupDict(table, name string) (id int64, ok bool) {
	if k := dictOf(table); k >= 0 {
		return s.names.id(k, name)
	}
	return 0, false
}

// ExecutionResultIDs returns the sorted performance_result IDs of one
// execution, reading the execution_id index for row IDs alone: no row is
// built for a flushed entry.
func (s *Store) ExecutionResultIDs(exec string) ([]int64, error) {
	id, ok := s.names.id(dictExecution, exec)
	if !ok {
		return nil, fmt.Errorf("datastore: unknown execution %q: %w", exec, ErrNotFound)
	}
	tab, ok := s.eng.Table("performance_result")
	if !ok {
		return nil, fmt.Errorf("datastore: no performance_result table: %w", ErrNotFound)
	}
	var ids []int64
	if err := tab.IndexScanInt("performance_result_exec", []reldb.Value{reldb.Int(id)}, 0,
		func(rid, _ int64) bool {
			ids = append(ids, rid)
			return true
		}); err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}

// Blocks opens the block source of one table (performance_result,
// result_has_focus, focus_has_resource, ...) for first-primary-key values in
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
