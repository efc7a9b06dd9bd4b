package diagnose

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
	name, units string
	sumA, sumB  float64
	nA, nB      int
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
	matched, err := s.ExecutionsOfResults(res.IDs())
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("diagnose: side %s families match no executions: %w", side, datastore.ErrNotFound)
	}
	return matched, nil
}

// extractFeatures builds the per-execution profiles, footprint inversion,
// and per-metric aggregates for both sides. The footprints fan out over
// workers (the store's reader paths are concurrent) while this goroutine
// folds each execution's metric, units and value columns, in side order
// and ascending result ID within each: the per-metric sums are then the
// same floats whatever the worker count. No result is materialized.
func extractFeatures(ctx context.Context, s *datastore.Store, execsA, execsB []string, metric string, workers int) (*features, error) {
	n := len(execsA) + len(execsB)
	f := &features{
		profiles: make([]profile, n),
		resExecs: make(map[int64][]int),
		metrics:  make(map[string]*metricAgg),
	}
	execs := append(append(make([]string, 0, n), execsA...), execsB...)
	footprints := make([][]int64, n)
	errs := make([]error, n)
	var failed atomic.Bool
	workers = max(min(workers, n), 1)
	work := make(chan int, n) // every index is queued up front
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if failed.Load() {
					continue
				}
				if footprints[i], errs[i] = s.ExecutionResourceIDs(ctx, execs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	foldErr := f.fold(ctx, s, execs, len(execsA), metric)
	if foldErr != nil {
		failed.Store(true)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if foldErr != nil {
		return nil, foldErr
	}
	for i, fp := range footprints {
		for _, rid := range fp {
			f.resExecs[rid] = append(f.resExecs[rid], i)
		}
	}
	return f, nil
}

// fold reads the result columns of every selected execution into its
// profile and the per-metric aggregates. A result counts toward the perf
// measure when it has the named metric or, with no metric named, is
// time-like (units containing "second"), matching the compare package's
// bottleneck convention. Executions from index sideA on are side B.
func (f *features) fold(ctx context.Context, s *datastore.Store, execs []string, sideA int, metric string) error {
	metrics, units := s.Dict("metric"), s.Dict("units")
	byID := make(map[int64]*metricAgg)
	for i, exec := range execs {
		ids, err := s.ExecutionResultIDs(exec)
		if err != nil {
			return err
		}
		slow := i >= sideA
		sum, cnt := 0.0, 0
		if err := s.ResultColumns(ctx, ids, func(_ int, m, u int64, value float64) error {
			unitName := units.Name(u)
			if unitName == "" {
				return fmt.Errorf("diagnose: no units id %d", u)
			}
			agg := byID[m]
			if agg == nil {
				metricName := metrics.Name(m)
				if metricName == "" {
					return fmt.Errorf("diagnose: no metric id %d", m)
				}
				agg = &metricAgg{name: metricName, units: unitName}
				byID[m], f.metrics[metricName] = agg, agg
			}
			if slow {
				agg.sumB += value
				agg.nB++
			} else {
				agg.sumA += value
				agg.nA++
			}
			inPerf := agg.name == metric
			if metric == "" {
				inPerf = strings.Contains(unitName, "second")
			}
			if inPerf {
				sum += value
				cnt++
			}
			return nil
		}); err != nil {
			return err
		}
		p := profile{name: exec, slow: slow}
		if cnt > 0 {
			p.perf = sum / float64(cnt)
			p.perfOK = true
		}
		f.profiles[i] = p
	}
	return nil
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
