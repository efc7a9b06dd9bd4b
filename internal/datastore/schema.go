// Package datastore implements PTDataStore: the PerfTrack data store from
// Section 3 of the paper, mapping the core model onto the relational
// schema of Figure 1 and providing the load and query interfaces used by
// the script interface and the GUI.
//
// Schema notes (Figure 1):
//
//   - resource_item holds one row per resource with its name, parent link,
//     and focus_framework_id (the internal identifier of its type).
//   - focus_framework is the resource type registry; PerfTrack loads the
//     base types through the same type-extension interface users call.
//   - resource_attribute holds string attributes; resource_constraint
//     holds resource-valued attributes (two resource_item references).
//   - Each performance-result context is a "focus"; focus_has_resource
//     links a focus to its member resources, and performance results link
//     to one or more foci (multiple resource sets per result, added for
//     the mpiP caller/callee data in §4.2).
//   - resource_has_ancestor and resource_has_descendant are closure tables
//     added "for performance reasons" to avoid walking parent_id chains;
//     the store can run with or without them (§ablation).
package datastore

import (
	"fmt"
	"strings"

	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// schemaDDL is the Figure 1 schema expressed in the sqldb SQL subset. The
// statements run in order; foreign keys require their referenced tables
// first.
var schemaDDL = []string{
	`CREATE TABLE application (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX application_name ON application (name)`,

	`CREATE TABLE execution (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL,
		application_id INTEGER NOT NULL,
		FOREIGN KEY (application_id) REFERENCES application (id)
	)`,
	`CREATE UNIQUE INDEX execution_name ON execution (name)`,
	`CREATE INDEX execution_app ON execution (application_id)`,

	`CREATE TABLE focus_framework (
		id INTEGER PRIMARY KEY,
		type_name TEXT NOT NULL,
		parent_id INTEGER,
		FOREIGN KEY (parent_id) REFERENCES focus_framework (id)
	)`,
	`CREATE UNIQUE INDEX focus_framework_name ON focus_framework (type_name)`,
	`CREATE INDEX focus_framework_parent ON focus_framework (parent_id)`,

	`CREATE TABLE resource_item (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL,
		base_name TEXT NOT NULL,
		parent_id INTEGER,
		focus_framework_id INTEGER NOT NULL,
		execution_id INTEGER,
		FOREIGN KEY (parent_id) REFERENCES resource_item (id),
		FOREIGN KEY (focus_framework_id) REFERENCES focus_framework (id),
		FOREIGN KEY (execution_id) REFERENCES execution (id)
	)`,
	`CREATE UNIQUE INDEX resource_item_name ON resource_item (name)`,
	`CREATE INDEX resource_item_parent ON resource_item (parent_id)`,
	`CREATE INDEX resource_item_type ON resource_item (focus_framework_id)`,
	`CREATE INDEX resource_item_base ON resource_item (base_name)`,
	`CREATE INDEX resource_item_exec ON resource_item (execution_id)`,

	`CREATE TABLE resource_attribute (
		id INTEGER PRIMARY KEY,
		resource_id INTEGER NOT NULL,
		name TEXT NOT NULL,
		value TEXT NOT NULL,
		attr_type TEXT NOT NULL,
		FOREIGN KEY (resource_id) REFERENCES resource_item (id)
	)`,
	`CREATE INDEX resource_attribute_res ON resource_attribute (resource_id)`,
	`CREATE INDEX resource_attribute_name ON resource_attribute (name, value)`,

	`CREATE TABLE resource_constraint (
		id INTEGER PRIMARY KEY,
		resource_id_1 INTEGER NOT NULL,
		resource_id_2 INTEGER NOT NULL,
		FOREIGN KEY (resource_id_1) REFERENCES resource_item (id),
		FOREIGN KEY (resource_id_2) REFERENCES resource_item (id)
	)`,
	`CREATE INDEX resource_constraint_r1 ON resource_constraint (resource_id_1)`,
	`CREATE INDEX resource_constraint_r2 ON resource_constraint (resource_id_2)`,

	`CREATE TABLE resource_has_ancestor (
		resource_id INTEGER NOT NULL,
		ancestor_id INTEGER NOT NULL,
		PRIMARY KEY (resource_id, ancestor_id),
		FOREIGN KEY (resource_id) REFERENCES resource_item (id),
		FOREIGN KEY (ancestor_id) REFERENCES resource_item (id)
	)`,
	`CREATE INDEX rha_ancestor ON resource_has_ancestor (ancestor_id)`,

	`CREATE TABLE resource_has_descendant (
		resource_id INTEGER NOT NULL,
		descendant_id INTEGER NOT NULL,
		PRIMARY KEY (resource_id, descendant_id),
		FOREIGN KEY (resource_id) REFERENCES resource_item (id),
		FOREIGN KEY (descendant_id) REFERENCES resource_item (id)
	)`,
	`CREATE INDEX rhd_descendant ON resource_has_descendant (descendant_id)`,

	`CREATE TABLE metric (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX metric_name ON metric (name)`,

	`CREATE TABLE performance_tool (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX performance_tool_name ON performance_tool (name)`,

	`CREATE TABLE units (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX units_name ON units (name)`,

	`CREATE TABLE focus (
		id INTEGER PRIMARY KEY,
		focus_type TEXT NOT NULL,
		signature TEXT NOT NULL
	)`,
	`CREATE UNIQUE INDEX focus_signature ON focus (signature)`,

	`CREATE TABLE focus_has_resource (
		focus_id INTEGER NOT NULL,
		resource_id INTEGER NOT NULL,
		PRIMARY KEY (focus_id, resource_id),
		FOREIGN KEY (focus_id) REFERENCES focus (id),
		FOREIGN KEY (resource_id) REFERENCES resource_item (id)
	)`,
	`CREATE INDEX fhr_resource ON focus_has_resource (resource_id)`,

	`CREATE TABLE performance_result (
		id INTEGER PRIMARY KEY,
		execution_id INTEGER NOT NULL,
		metric_id INTEGER NOT NULL,
		performance_tool_id INTEGER NOT NULL,
		units_id INTEGER NOT NULL,
		value REAL NOT NULL,
		FOREIGN KEY (execution_id) REFERENCES execution (id),
		FOREIGN KEY (metric_id) REFERENCES metric (id),
		FOREIGN KEY (performance_tool_id) REFERENCES performance_tool (id),
		FOREIGN KEY (units_id) REFERENCES units (id)
	)`,
	`CREATE INDEX performance_result_exec ON performance_result (execution_id)`,
	`CREATE INDEX performance_result_metric ON performance_result (metric_id)`,

	// Complex (histogram-valued) performance results — the paper's §6
	// future-work item: one row holds every bin of a Paradyn histogram,
	// instead of one performance_result per bin. The owning
	// performance_result row stores the summary scalar (mean over bins
	// with data).
	`CREATE TABLE result_histogram (
		result_id INTEGER PRIMARY KEY,
		bin_width REAL NOT NULL,
		num_bins INTEGER NOT NULL,
		bin_values TEXT NOT NULL,
		FOREIGN KEY (result_id) REFERENCES performance_result (id)
	)`,

	`CREATE TABLE result_has_focus (
		result_id INTEGER NOT NULL,
		focus_id INTEGER NOT NULL,
		PRIMARY KEY (result_id, focus_id),
		FOREIGN KEY (result_id) REFERENCES performance_result (id),
		FOREIGN KEY (focus_id) REFERENCES focus (id)
	)`,
	`CREATE INDEX rhf_focus ON result_has_focus (focus_id)`,
}

// tableNames lists every schema table, used for existence checks and
// statistics.
var tableNames = []string{
	"application", "execution", "focus_framework", "resource_item",
	"resource_attribute", "resource_constraint", "resource_has_ancestor",
	"resource_has_descendant", "metric", "performance_tool", "units",
	"focus", "focus_has_resource", "performance_result",
	"result_histogram", "result_has_focus",
}

// createSchema creates the Figure 1 schema through the SQL layer.
func createSchema(sql *sqldb.DB) error {
	for _, ddl := range schemaDDL {
		if _, err := sql.Exec(ddl); err != nil {
			return fmt.Errorf("datastore: schema: %w", err)
		}
	}
	return nil
}

// migrateSchema creates any tables and indexes added to the schema after
// an existing store was initialized, so stores survive upgrades of this
// package. Indexes missing from an existing table (e.g. the
// resource_attribute (name, value) index the pr-filter fast path scans)
// are created through the engine, which backfills them from the table's
// current rows.
func migrateSchema(sql *sqldb.DB, eng reldb.Engine) error {
	for _, ddl := range schemaDDL {
		trimmed := strings.TrimSpace(ddl)
		switch {
		case strings.HasPrefix(trimmed, "CREATE TABLE "):
			name := strings.Fields(strings.TrimPrefix(trimmed, "CREATE TABLE "))[0]
			if _, exists := eng.Table(name); exists {
				continue
			}
			if _, err := sql.Exec(ddl); err != nil {
				return fmt.Errorf("datastore: migrate %s: %w", name, err)
			}
		case strings.Contains(trimmed, "INDEX"):
			idxName, tblName, err := parseIndexDDL(trimmed)
			if err != nil {
				return err
			}
			tab, exists := eng.Table(tblName)
			if !exists || tab.HasIndex(idxName) {
				continue
			}
			if _, err := sql.Exec(ddl); err != nil {
				return fmt.Errorf("datastore: migrate index %s: %w", idxName, err)
			}
		}
	}
	return nil
}

// parseIndexDDL extracts the index and table names from a
// CREATE [UNIQUE] INDEX statement of the schema DDL.
func parseIndexDDL(ddl string) (index, table string, err error) {
	fields := strings.Fields(ddl)
	for i, f := range fields {
		if f == "INDEX" && i+1 < len(fields) {
			index = fields[i+1]
		}
		if f == "ON" && i+1 < len(fields) {
			table = fields[i+1]
		}
	}
	if index == "" || table == "" {
		return "", "", fmt.Errorf("datastore: malformed index DDL %q", ddl)
	}
	return index, table, nil
}

// schemaExists reports whether the schema is already present.
func schemaExists(eng reldb.Engine) bool {
	_, ok := eng.Table("resource_item")
	return ok
}

// SchemaDDL renders the live schema of every table as CREATE statements —
// the reproduction of Figure 1.
func (s *Store) SchemaDDL() string {
	out := ""
	for _, name := range tableNames {
		if t, ok := s.eng.Table(name); ok {
			out += t.Schema().DDL() + "\n"
		}
	}
	return out
}
