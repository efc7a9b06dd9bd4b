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

	"perftrack/internal/reldb"
)

// figure1 is the Figure 1 schema. Tables are listed so that every foreign
// key's referenced table comes first.
var figure1 = []*reldb.Schema{
	{
		Name: "application",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
	},
	{
		Name: "execution",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
			{Name: "application_id", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "application_id", RefTable: "application", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "execution_name", Columns: []string{"name"}},
		},
	},
	{
		Name: "focus_framework",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "type_name", Type: reldb.KindString},
			{Name: "parent_id", Type: reldb.KindInt, Nullable: true},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "parent_id", RefTable: "focus_framework", RefColumn: "id"},
		},
	},
	{
		Name: "resource_item",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
			{Name: "base_name", Type: reldb.KindString},
			{Name: "parent_id", Type: reldb.KindInt, Nullable: true},
			{Name: "focus_framework_id", Type: reldb.KindInt},
			{Name: "execution_id", Type: reldb.KindInt, Nullable: true},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "parent_id", RefTable: "resource_item", RefColumn: "id"},
			{Column: "focus_framework_id", RefTable: "focus_framework", RefColumn: "id"},
			{Column: "execution_id", RefTable: "execution", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "resource_item_name", Columns: []string{"name"}},
			{Name: "resource_item_parent", Columns: []string{"parent_id"}},
			{Name: "resource_item_type", Columns: []string{"focus_framework_id"}},
			{Name: "resource_item_base", Columns: []string{"base_name"}},
			{Name: "resource_item_exec", Columns: []string{"execution_id"}},
		},
	},
	{
		Name: "resource_attribute",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "resource_id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
			{Name: "value", Type: reldb.KindString},
			{Name: "attr_type", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "resource_id", RefTable: "resource_item", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "resource_attribute_res", Columns: []string{"resource_id"}},
			{Name: "resource_attribute_name", Columns: []string{"name", "value"}},
		},
	},
	{
		Name: "resource_constraint",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "resource_id_1", Type: reldb.KindInt},
			{Name: "resource_id_2", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "resource_id_1", RefTable: "resource_item", RefColumn: "id"},
			{Column: "resource_id_2", RefTable: "resource_item", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "resource_constraint_r1", Columns: []string{"resource_id_1"}},
			{Name: "resource_constraint_r2", Columns: []string{"resource_id_2"}},
		},
	},
	{
		Name: "resource_has_ancestor",
		Columns: []reldb.Column{
			{Name: "resource_id", Type: reldb.KindInt},
			{Name: "ancestor_id", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"resource_id", "ancestor_id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "resource_id", RefTable: "resource_item", RefColumn: "id"},
			{Column: "ancestor_id", RefTable: "resource_item", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "rha_ancestor", Columns: []string{"ancestor_id"}},
		},
	},
	{
		Name: "resource_has_descendant",
		Columns: []reldb.Column{
			{Name: "resource_id", Type: reldb.KindInt},
			{Name: "descendant_id", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"resource_id", "descendant_id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "resource_id", RefTable: "resource_item", RefColumn: "id"},
			{Column: "descendant_id", RefTable: "resource_item", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "rhd_descendant", Columns: []string{"descendant_id"}},
		},
	},
	{
		Name: "metric",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
	},
	{
		Name: "performance_tool",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
	},
	{
		Name: "units",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
	},
	{
		Name: "focus",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "focus_type", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
	},
	{
		Name: "focus_has_resource",
		Columns: []reldb.Column{
			{Name: "focus_id", Type: reldb.KindInt},
			{Name: "resource_id", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"focus_id", "resource_id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "focus_id", RefTable: "focus", RefColumn: "id"},
			{Column: "resource_id", RefTable: "resource_item", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "fhr_resource", Columns: []string{"resource_id"}},
		},
	},
	{
		Name: "performance_result",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "execution_id", Type: reldb.KindInt},
			{Name: "metric_id", Type: reldb.KindInt},
			{Name: "performance_tool_id", Type: reldb.KindInt},
			{Name: "units_id", Type: reldb.KindInt},
			{Name: "value", Type: reldb.KindFloat},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "execution_id", RefTable: "execution", RefColumn: "id"},
			{Column: "metric_id", RefTable: "metric", RefColumn: "id"},
			{Column: "performance_tool_id", RefTable: "performance_tool", RefColumn: "id"},
			{Column: "units_id", RefTable: "units", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "performance_result_exec", Columns: []string{"execution_id"}},
		},
	},
	// Complex (histogram-valued) performance results — the paper's §6
	// future-work item: one row holds every bin of a Paradyn histogram,
	// instead of one performance_result per bin. The owning
	// performance_result row stores the summary scalar (mean over bins
	// with data).
	{
		Name: "result_histogram",
		Columns: []reldb.Column{
			{Name: "result_id", Type: reldb.KindInt},
			{Name: "bin_width", Type: reldb.KindFloat},
			{Name: "num_bins", Type: reldb.KindInt},
			{Name: "bin_values", Type: reldb.KindString},
		},
		PrimaryKey: []string{"result_id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "result_id", RefTable: "performance_result", RefColumn: "id"},
		},
	},
	{
		Name: "result_has_focus",
		Columns: []reldb.Column{
			{Name: "result_id", Type: reldb.KindInt},
			{Name: "focus_id", Type: reldb.KindInt},
		},
		PrimaryKey: []string{"result_id", "focus_id"},
		ForeignKeys: []reldb.ForeignKey{
			{Column: "result_id", RefTable: "performance_result", RefColumn: "id"},
			{Column: "focus_id", RefTable: "focus", RefColumn: "id"},
		},
		Indexes: []reldb.IndexSpec{
			{Name: "rhf_focus", Columns: []string{"focus_id"}},
		},
	},
}

// tableNames lists every schema table, used for existence checks and
// statistics.
var tableNames = func() []string {
	names := make([]string, len(figure1))
	for i, t := range figure1 {
		names[i] = t.Name
	}
	return names
}()

// ensureSchema brings the engine to the schema: a missing table is
// created with its indexes — a fresh store, or one whose first open
// crashed between two CreateTable calls. A table that exists must be
// Figure 1's as it stands, indexes and all: the open is refused with
// reldb.ErrFormat otherwise, for only an older program wrote another.
func ensureSchema(eng *reldb.DB) error {
	for _, want := range figure1 {
		tab, exists := eng.Table(want.Name)
		if !exists {
			if err := eng.CreateTable(want); err != nil {
				return fmt.Errorf("datastore: schema: %w", err)
			}
			continue
		}
		if tab.Schema().DDL() != want.DDL() {
			return fmt.Errorf("%w (table %s is not Figure 1's)", reldb.ErrFormat, want.Name)
		}
	}
	return nil
}

// SchemaDDL renders the live schema of every table as CREATE statements:
// the reproduction of Figure 1, in its order.
func (s *Store) SchemaDDL() string {
	out := ""
	for _, want := range figure1 {
		if t, ok := s.eng.Table(want.Name); ok {
			out += t.Schema().DDL() + "\n"
		}
	}
	return out
}
