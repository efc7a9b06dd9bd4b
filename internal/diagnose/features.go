package diagnose

import (
	"context"
	"fmt"
	"sort"

	"perftrack/internal/compare"
	"perftrack/internal/datastore"
	"perftrack/internal/par"
	"perftrack/internal/query"
)

// profile is one selected execution's observation: which side it belongs
// to and its performance under the diagnosis metric.
type profile struct {
	name   string
	slow   bool // side B
	perf   float64
	perfOK bool
}

// profiles reads each execution's perf under metric off a comparison of
// the sides.
func profiles(cmp *compare.Comparison, metric string) []profile {
	out := make([]profile, len(cmp.Execs))
	for i, e := range cmp.Execs {
		out[i] = profile{name: e.Name, slow: e.Side == 1}
		if perf, ok := cmp.Perf(i, metric); ok {
			out[i].perf, out[i].perfOK = perf, true
		}
	}
	return out
}

// features is everything the scorer needs: the profiles, and the
// execution footprints.
type features struct {
	profiles []profile
	// resExecs inverts the execution footprints: resource ID → indexes
	// into profiles whose footprint contains it.
	resExecs map[int64][]int
}

// resolveSide turns one side of a Spec into its execution list: the
// single named execution, the explicit list, or every execution owning a
// result matched by the side's pr-filter families.
func resolveSide(ctx context.Context, s *datastore.Store, exec string, execs, families []string, side string) ([]string, error) {
	if exec != "" {
		return []string{exec}, nil
	}
	if len(execs) > 0 {
		out := make([]string, len(execs))
		copy(out, execs)
		sort.Strings(out)
		return out, nil
	}
	res, err := query.Resolve(ctx, s, &query.Selection{Families: families})
	if err != nil {
		return nil, fmt.Errorf("diagnose: side %s %w", side, err)
	}
	matched, err := s.ExecutionsOfResults(ctx, res.Set())
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("diagnose: side %s families match no executions: %w", side, datastore.ErrNotFound)
	}
	return matched, nil
}

// extractFeatures reads the footprint of every execution a comparison
// of the sides folded, from the context resources its aligner read, in
// spans of the executions (the store's reader paths are concurrent), and
// inverts them. No result, focus link or focus is read again; ctx is
// checked once per execution.
func extractFeatures(ctx context.Context, s *datastore.Store, cmp *compare.Comparison) (*features, error) {
	footprints := make([][]int64, len(cmp.Execs))
	if err := par.Range(len(cmp.Execs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("diagnose: features: %w", err)
			}
			var err error
			if footprints[i], err = s.ExecutionResourceIDs(cmp.Execs[i].Name, cmp.Execs[i].Resources); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	f := &features{resExecs: make(map[int64][]int)}
	for i, fp := range footprints {
		for _, rid := range fp {
			f.resExecs[rid] = append(f.resExecs[rid], i)
		}
	}
	return f, nil
}

// matrixFor projects one attribute's effective values onto the selected
// executions: matrix[i] lists the distinct values carried by execution
// i's footprint. vals comes straight from the attribute index
// (Store.AttributeValues), so cost scales with resources carrying the
// attribute, not with store size.
func (f *features) matrixFor(vals map[int64]string) [][]string {
	matrix := make([][]string, len(f.profiles))
	for rid, v := range vals {
		for _, i := range f.resExecs[rid] {
			if !containsStr(matrix[i], v) {
				matrix[i] = append(matrix[i], v)
			}
		}
	}
	for _, vs := range matrix {
		sort.Strings(vs)
	}
	return matrix
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
