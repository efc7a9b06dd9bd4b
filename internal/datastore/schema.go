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
	"slices"

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
		Indexes: []reldb.IndexSpec{
			{Name: "application_name", Columns: []string{"name"}},
		},
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
			{Name: "execution_app", Columns: []string{"application_id"}},
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
		Indexes: []reldb.IndexSpec{
			{Name: "focus_framework_name", Columns: []string{"type_name"}},
			{Name: "focus_framework_parent", Columns: []string{"parent_id"}},
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
		Indexes: []reldb.IndexSpec{
			{Name: "metric_name", Columns: []string{"name"}},
		},
	},
	{
		Name: "performance_tool",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
		Indexes: []reldb.IndexSpec{
			{Name: "performance_tool_name", Columns: []string{"name"}},
		},
	},
	{
		Name: "units",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "name", Type: reldb.KindString},
		},
		PrimaryKey: []string{"id"},
		Indexes: []reldb.IndexSpec{
			{Name: "units_name", Columns: []string{"name"}},
		},
	},
	{
		Name: "focus",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.KindInt},
			{Name: "focus_type", Type: reldb.KindString},
			{Name: "signature", Type: reldb.KindString},
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
			{Name: "performance_result_metric", Columns: []string{"metric_id"}},
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
// created with its indexes; an index missing from an existing table (one
// added to the schema after the store was initialized) is created through
// the engine, which sorts each block's permutation for it on first use;
// an index whose spec differs from the schema's — a unique name index of
// a store from before the names directory alone kept names unique — is
// dropped and created again, one logged DROP INDEX and one CREATE INDEX;
// and an index the schema no longer has is dropped — focus_signature, in
// such a store too. A fresh store and an old one take the same path; an
// up-to-date one is not touched.
func ensureSchema(eng *reldb.DB) error {
	for _, want := range figure1 {
		tab, exists := eng.Table(want.Name)
		if !exists {
			if err := eng.CreateTable(want); err != nil {
				return fmt.Errorf("datastore: schema: %w", err)
			}
			continue
		}
		have := slices.Clone(tab.Schema().Indexes)
		for _, ix := range want.Indexes {
			i := slices.IndexFunc(have, func(h reldb.IndexSpec) bool { return h.Name == ix.Name })
			if i >= 0 && have[i].Unique == ix.Unique && slices.Equal(have[i].Columns, ix.Columns) {
				continue
			}
			if i >= 0 {
				if err := eng.DropIndex(want.Name, ix.Name); err != nil {
					return fmt.Errorf("datastore: schema: index %s: %w", ix.Name, err)
				}
			}
			if err := eng.CreateIndex(want.Name, ix); err != nil {
				return fmt.Errorf("datastore: schema: index %s: %w", ix.Name, err)
			}
		}
		for _, h := range have {
			if slices.ContainsFunc(want.Indexes, func(ix reldb.IndexSpec) bool { return ix.Name == h.Name }) {
				continue
			}
			if err := eng.DropIndex(want.Name, h.Name); err != nil {
				return fmt.Errorf("datastore: schema: index %s: %w", h.Name, err)
			}
		}
	}
	return nil
}

// schemaExists reports whether the schema is already present.
func schemaExists(eng *reldb.DB) bool {
	_, ok := eng.Table("resource_item")
	return ok
}

// SchemaDDL renders the live schema of every table as CREATE statements —
// the reproduction of Figure 1, in its order: an index ensureSchema
// replaced is the engine's newest, not the figure's last.
func (s *Store) SchemaDDL() string {
	out := ""
	for _, want := range figure1 {
		t, ok := s.eng.Table(want.Name)
		if !ok {
			continue
		}
		rank := func(ix reldb.IndexSpec) int {
			if i := slices.IndexFunc(want.Indexes, func(w reldb.IndexSpec) bool { return w.Name == ix.Name }); i >= 0 {
				return i
			}
			return len(want.Indexes)
		}
		live := t.Schema().Clone()
		slices.SortStableFunc(live.Indexes, func(a, b reldb.IndexSpec) int { return rank(a) - rank(b) })
		out += live.DDL() + "\n"
	}
	return out
}
