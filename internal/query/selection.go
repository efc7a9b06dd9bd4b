package query

import (
	"context"
	"fmt"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
)

// Selection is the unified execution/family selection spec shared by the
// v1 API: /v1/query, /v1/results, /v1/compare, and /v1/diagnose all
// select the same way — zero or more pr-filter family specs (see
// ParseFilterSpec) intersected, optionally restricted to one or more
// named executions. Older per-endpoint field spellings (top-level
// "families", diagnose's "a"/"execs_a") keep decoding; each request type
// folds them into a Selection (WithFamilies) before Resolve evaluates it.
type Selection struct {
	// Execution restricts the selection to one named execution. It is
	// shorthand for a single-element Executions list.
	Execution string `json:"execution,omitempty"`
	// Executions restricts the selection to the union of the named
	// executions' results.
	Executions []string `json:"executions,omitempty"`
	// Families holds pr-filter family specs; a result matches when every
	// family matches it (intersection semantics).
	Families []string `json:"families,omitempty"`
}

// ExecutionList merges Execution and Executions, preserving order and
// dropping duplicates and empties.
func (s *Selection) ExecutionList() []string {
	if s == nil {
		return nil
	}
	var out []string
	seen := make(map[string]bool, 1+len(s.Executions))
	for _, e := range append([]string{s.Execution}, s.Executions...) {
		if e == "" || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// WithFamilies folds an endpoint's legacy top-level family list into the
// selection: the legacy specs first, then the selection's own. The
// receiver may be nil and is not modified.
func (s *Selection) WithFamilies(legacy []string) *Selection {
	out := Selection{Families: append([]string(nil), legacy...)}
	if s != nil {
		out.Execution, out.Executions = s.Execution, s.Executions
		out.Families = append(out.Families, s.Families...)
	}
	return &out
}

// FamilyCount reports one family's size and how many performance results
// it matches alone (a Figure 3 live count).
type FamilyCount struct {
	Spec      string `json:"spec"`
	Resources int    `json:"resources"`
	Matches   int    `json:"matches"`
}

// Resolution is an evaluated Selection.
type Resolution struct {
	// Filters are the parsed family specs and PRFilter the families they
	// select, both in Selection.Families order.
	Filters  []core.ResourceFilter
	PRFilter core.PRFilter
	// Counts holds the per-family live counts, never nil.
	Counts []FamilyCount
	// set holds the selected performance results, possibly shared with
	// the store's match cache.
	set datastore.IDSet
}

// Len reports how many performance results are selected.
func (r *Resolution) Len() int { return r.set.Len() }

// IDs returns the selected performance results as a new ascending list,
// the caller's to modify.
func (r *Resolution) IDs() []int64 { return r.set.IDs() }

// Resolve is the one place a Selection becomes result IDs; every route,
// CLI, and the planner's family pseudo-column go through it. Each family
// spec is parsed and applied (datastore.ApplyFilterCtx), the families are
// intersected through the store's generation-keyed match cache
// (MatchingSetCtx), and the execution restriction — the union of the
// named executions' result lists off the execution index — is
// intersected last; with no families the selection is that union, and
// the pr-filter is not evaluated at all. A malformed spec is ErrBadSpec,
// an unknown execution ErrNotFound. Each family's own match count is one
// more lookup in the same cache, whose entry the intersection then reuses.
// No ID list is built: a caller that needs one asks IDs.
func Resolve(ctx context.Context, st *datastore.Store, sel *Selection) (*Resolution, error) {
	var specs []string
	if sel != nil {
		specs = sel.Families
	}
	res := &Resolution{Counts: make([]FamilyCount, 0, len(specs))} // the wire form is [], not null
	for _, spec := range specs {
		rf, err := ParseFilterSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("family %q: %w: %w", spec, err, datastore.ErrBadSpec)
		}
		fam, err := st.ApplyFilterCtx(ctx, rf)
		if err != nil {
			return nil, fmt.Errorf("family %q: %w", spec, err)
		}
		n, err := st.CountFamilyMatchesCtx(ctx, fam)
		if err != nil {
			return nil, fmt.Errorf("family %q: %w", spec, err)
		}
		res.Counts = append(res.Counts, FamilyCount{Spec: spec, Resources: fam.Size(), Matches: n})
		res.Filters = append(res.Filters, rf)
		res.PRFilter.Families = append(res.PRFilter.Families, fam)
	}
	execs := sel.ExecutionList()
	var restrict datastore.IDSet
	for _, e := range execs {
		ids, err := st.ExecutionResultIDs(e)
		if err != nil {
			return nil, err
		}
		restrict = restrict.Union(datastore.NewIDSet(ids))
	}
	if len(specs) == 0 && len(execs) > 0 {
		res.set = restrict // the empty pr-filter is every result: nothing to intersect
		return res, nil
	}
	var err error
	if res.set, err = st.MatchingSetCtx(ctx, res.PRFilter); err != nil {
		return nil, err
	}
	if len(execs) > 0 {
		res.set = res.set.Intersect(restrict)
	}
	return res, nil
}
