package diagnose

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
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

// metricAgg accumulates one metric's values per side, feeding the
// bottleneck ranking.
type metricAgg struct {
	units      string
	sumA, sumB float64
	nA, nB     int
}

// features is everything the scorer needs, extracted from the store in
// one parallel pass over the selected executions.
type features struct {
	profiles []profile
	// resExecs inverts the execution footprints: resource ID → indexes
	// into profiles whose footprint contains it.
	resExecs map[int64][]int
	// metrics aggregates every metric seen on the selected executions.
	metrics map[string]*metricAgg
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
	matched, err := s.ExecutionsOfResults(res.IDs)
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("diagnose: side %s families match no executions: %w", side, datastore.ErrNotFound)
	}
	return matched, nil
}

// metricMatches reports whether a result participates in the perf
// measurement: the named metric, or — with no metric filter — any
// time-like result (units containing "second"), matching the compare
// package's bottleneck convention.
func metricMatches(metric string, pr *core.PerformanceResult) bool {
	if metric != "" {
		return pr.Metric == metric
	}
	return strings.Contains(pr.Units, "second")
}

// extractFeatures builds the per-execution profiles, footprint inversion,
// and per-metric aggregates for both sides, fanning the per-execution
// store reads out over workers (the store's reader paths are concurrent).
func extractFeatures(ctx context.Context, s *datastore.Store, execsA, execsB []string, metric string, workers int) (*features, error) {
	n := len(execsA) + len(execsB)
	f := &features{
		profiles: make([]profile, n),
		resExecs: make(map[int64][]int),
		metrics:  make(map[string]*metricAgg),
	}
	type perExec struct {
		footprint []int64
		results   []*core.PerformanceResult
	}
	name := func(i int) string {
		if i < len(execsA) {
			return execsA[i]
		}
		return execsB[i-len(execsA)]
	}
	got := make([]perExec, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				exec := name(i)
				fp, err := s.ExecutionResourceIDs(exec)
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := s.ResultsOfExecutionCtx(ctx, exec)
				if err != nil {
					errs[i] = err
					continue
				}
				got[i] = perExec{footprint: fp, results: res}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		slow := i >= len(execsA)
		p := profile{name: name(i), slow: slow}
		sum, cnt := 0.0, 0
		for _, pr := range got[i].results {
			agg := f.metrics[pr.Metric]
			if agg == nil {
				agg = &metricAgg{units: pr.Units}
				f.metrics[pr.Metric] = agg
			}
			if slow {
				agg.sumB += pr.Value
				agg.nB++
			} else {
				agg.sumA += pr.Value
				agg.nA++
			}
			if metricMatches(metric, pr) {
				sum += pr.Value
				cnt++
			}
		}
		if cnt > 0 {
			p.perf = sum / float64(cnt)
			p.perfOK = true
		}
		f.profiles[i] = p
		for _, rid := range got[i].footprint {
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
