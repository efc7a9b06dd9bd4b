// Package diagnose implements automated multi-execution performance
// diagnosis — the paper's §6 future-work item of moving beyond hand-built
// comparisons. Given two executions (or two pr-filter-selected sets of
// executions), it answers "why is side B slower than side A?" three ways:
//
//   - aligning results with compare.Executions and ranking per-context
//     deltas (single-execution sides only),
//   - ranking metrics by their contribution to the slowdown (the
//     bottleneck framing),
//   - searching the resource-attribute space for predicates that best
//     discriminate the slow side from the fast side (equality and
//     numeric-threshold candidates, scored by effect size × coverage,
//     PerfXplain-style), enumerated through the attribute index rather
//     than full resource scans.
//
// Predicate scoring and per-execution feature extraction fan out over a
// bounded worker pool, mirroring the materializer's GOMAXPROCS pattern.
package diagnose

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/obs"
)

// Defaults applied by Run when the Spec leaves them zero.
const (
	DefaultTop         = 10
	DefaultMinCoverage = 0.25
)

// Spec selects the two sides and parameterizes the search. Each side is
// exactly one of: a named execution (ExecA/ExecB), an explicit execution
// list (ExecsA/ExecsB), or a list of pr-filter family specs (ptquery
// syntax) whose matching results select the side's executions.
type Spec struct {
	ExecA     string
	ExecB     string
	ExecsA    []string
	ExecsB    []string
	FamiliesA []string
	FamiliesB []string
	// Metric restricts the perf measurement and bottleneck ranking to one
	// metric; empty means every time-like result (units containing
	// "second").
	Metric string
	// Top caps ranked explanations, contexts, and bottlenecks
	// (0 = DefaultTop).
	Top int
	// MinCoverage drops attributes defined on less than this fraction of
	// the selected executions (0 = DefaultMinCoverage).
	MinCoverage float64
	// Explain records the predicate search trace in Result.Trace.
	Explain bool
	// Workers bounds the fan-out of the execution footprint reads and of
	// predicate scoring; <= 0 means GOMAXPROCS, 1 forces the serial path.
	Workers int
}

// Validate checks side selection and parameter ranges.
func (sp *Spec) Validate() error {
	if err := validateSide("A", sp.ExecA, sp.ExecsA, sp.FamiliesA); err != nil {
		return err
	}
	if err := validateSide("B", sp.ExecB, sp.ExecsB, sp.FamiliesB); err != nil {
		return err
	}
	if sp.Top < 0 {
		return fmt.Errorf("diagnose: top must be >= 0: %w", datastore.ErrBadSpec)
	}
	if sp.MinCoverage < 0 || sp.MinCoverage > 1 {
		return fmt.Errorf("diagnose: min_coverage must be in [0, 1]: %w", datastore.ErrBadSpec)
	}
	return nil
}

func validateSide(side, exec string, execs, families []string) error {
	set := 0
	if exec != "" {
		set++
	}
	if len(execs) > 0 {
		set++
	}
	if len(families) > 0 {
		set++
	}
	if set != 1 {
		return fmt.Errorf("diagnose: side %s needs exactly one of an execution name, an execution list, or family specs: %w",
			side, datastore.ErrBadSpec)
	}
	for _, e := range execs {
		if e == "" {
			return fmt.Errorf("diagnose: side %s has an empty execution name: %w", side, datastore.ErrBadSpec)
		}
	}
	return nil
}

// Bottleneck ranks one metric by its contribution to the slowdown.
type Bottleneck struct {
	Metric string
	Units  string
	MeanA  float64 // mean value per result on side A
	MeanB  float64
	Delta  float64 // MeanB - MeanA
	// Contribution is Delta as a fraction of the total positive slowdown
	// across ranked metrics; 0 for metrics where B improved.
	Contribution float64
}

// ContextFinding is one aligned-context delta from compare.Executions,
// produced only when both sides are single executions.
type ContextFinding struct {
	Context      []core.ResourceName
	Metric       string
	Units        string
	A, B         float64
	Delta        float64
	Contribution float64
}

// Result is a completed diagnosis.
type Result struct {
	SideA, SideB []string
	Metric       string
	// PerfA/PerfB are the mean per-execution perf of each side under the
	// metric selection; NaN when a side has no matching results.
	PerfA, PerfB float64
	Delta        float64 // PerfB - PerfA
	Ratio        float64 // PerfB / PerfA; NaN when PerfA is 0
	// AlignedPairs counts result pairs aligned by compare.Executions
	// (single-execution sides only).
	AlignedPairs int
	Keys         int // attribute keys considered
	Candidates   int // predicates scored
	Explanations []Explanation
	Bottlenecks  []Bottleneck
	Contexts     []ContextFinding
	Trace        []string // search trace; populated when Spec.Explain
}

// Run executes a diagnosis against the store.
func Run(ctx context.Context, s *datastore.Store, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	top := spec.Top
	if top == 0 {
		top = DefaultTop
	}
	minCov := spec.MinCoverage
	if minCov == 0 {
		minCov = DefaultMinCoverage
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{Metric: spec.Metric}
	trace := func(format string, args ...any) {
		if spec.Explain {
			res.Trace = append(res.Trace, fmt.Sprintf(format, args...))
		}
	}

	selCtx, selSpan := obs.StartSpan(ctx, "diagnose.select")
	execsA, err := resolveSide(selCtx, s, spec.ExecA, spec.ExecsA, spec.FamiliesA, "A")
	if err == nil {
		res.SideA = execsA
		res.SideB, err = resolveSide(selCtx, s, spec.ExecB, spec.ExecsB, spec.FamiliesB, "B")
	}
	selSpan.Annotate("side_a", strconv.Itoa(len(res.SideA)))
	selSpan.Annotate("side_b", strconv.Itoa(len(res.SideB)))
	selSpan.End()
	if err != nil {
		return nil, err
	}
	trace("side A: %d execution(s); side B: %d execution(s)", len(res.SideA), len(res.SideB))
	if spec.Metric == "" {
		trace("perf measure: mean of time-like results (units containing \"second\")")
	} else {
		trace("perf measure: mean of metric %q", spec.Metric)
	}

	featCtx, featSpan := obs.StartSpan(ctx, "diagnose.features")
	feats, err := extractFeatures(featCtx, s, res.SideA, res.SideB, spec.Metric, workers)
	if err != nil {
		featSpan.End()
		return nil, err
	}
	featSpan.Annotate("footprint_resources", strconv.Itoa(len(feats.resExecs)))
	featSpan.End()

	res.PerfA, res.PerfB = sidePerf(feats.profiles)
	res.Delta = res.PerfB - res.PerfA
	if res.PerfA == 0 {
		res.Ratio = math.NaN()
	} else {
		res.Ratio = res.PerfB / res.PerfA
	}

	if len(res.SideA) == 1 && len(res.SideB) == 1 {
		cmp, err := compare.ExecutionsCtx(ctx, s, res.SideA[0], res.SideB[0])
		if err != nil {
			return nil, err
		}
		res.AlignedPairs = len(cmp.Pairs)
		for _, f := range cmp.DiagnoseBottlenecks(spec.Metric, top) {
			res.Contexts = append(res.Contexts, ContextFinding{
				Context: f.Pair.Context, Metric: f.Pair.Metric, Units: f.Pair.Units,
				A: f.Pair.A, B: f.Pair.B, Delta: f.Delta, Contribution: f.Contribution,
			})
		}
		trace("aligned %d result pair(s) between %q and %q; %d slower-context finding(s)",
			res.AlignedPairs, res.SideA[0], res.SideB[0], len(res.Contexts))
	}
	res.Bottlenecks = rankBottlenecks(feats.metrics, spec.Metric, top)

	_, enumSpan := obs.StartSpan(ctx, "diagnose.enumerate")
	keys, err := s.AttributeKeys("")
	if err != nil {
		enumSpan.End()
		return nil, err
	}
	res.Keys = len(keys)
	type candidate struct {
		pred   Predicate
		matrix [][]string
	}
	var cands []candidate
	for _, key := range keys {
		vals, err := s.AttributeValues(key.Name)
		if err != nil {
			enumSpan.End()
			return nil, err
		}
		matrix := feats.matrixFor(vals)
		preds, skip := enumerate(key.Name, matrix, minCov)
		if skip != "" {
			trace("attr %q: skipped — %s", key.Name, skip)
			continue
		}
		trace("attr %q: %d candidate predicate(s)", key.Name, len(preds))
		for _, p := range preds {
			cands = append(cands, candidate{p, matrix})
		}
	}
	res.Candidates = len(cands)
	enumSpan.Annotate("keys", strconv.Itoa(res.Keys))
	enumSpan.Annotate("candidates", strconv.Itoa(res.Candidates))
	enumSpan.End()

	_, scoreSpan := obs.StartSpan(ctx, "diagnose.score")
	exs := make([]Explanation, len(cands))
	scoreWorkers := workers
	if scoreWorkers > len(cands) {
		scoreWorkers = len(cands)
	}
	if scoreWorkers <= 1 {
		for i, c := range cands {
			exs[i] = scoreCandidate(c.pred, c.matrix, feats.profiles)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < scoreWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					exs[i] = scoreCandidate(cands[i].pred, cands[i].matrix, feats.profiles)
				}
			}()
		}
		for i := range cands {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	scoreSpan.Annotate("workers", strconv.Itoa(workers))
	scoreSpan.End()

	ranked := rankExplanations(exs)
	trace("%d of %d candidate(s) discriminate the sides (score > 0)", len(ranked), res.Candidates)
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	res.Explanations = ranked
	return res, nil
}

// sidePerf means the per-execution perf of each side; NaN for a side with
// no measured executions.
func sidePerf(profiles []profile) (a, b float64) {
	sumA, nA, sumB, nB := 0.0, 0, 0.0, 0
	for _, p := range profiles {
		if !p.perfOK {
			continue
		}
		if p.slow {
			sumB += p.perf
			nB++
		} else {
			sumA += p.perf
			nA++
		}
	}
	a, b = math.NaN(), math.NaN()
	if nA > 0 {
		a = sumA / float64(nA)
	}
	if nB > 0 {
		b = sumB / float64(nB)
	}
	return a, b
}

// rankBottlenecks orders metrics by their per-result slowdown, largest
// first, with contributions normalized over the positive deltas.
func rankBottlenecks(metrics map[string]*metricAgg, metric string, top int) []Bottleneck {
	var out []Bottleneck
	totalSlow := 0.0
	for name, agg := range metrics {
		if metric != "" && name != metric {
			continue
		}
		if agg.nA == 0 || agg.nB == 0 {
			continue
		}
		b := Bottleneck{
			Metric: name, Units: agg.units,
			MeanA: agg.sumA / float64(agg.nA),
			MeanB: agg.sumB / float64(agg.nB),
		}
		b.Delta = b.MeanB - b.MeanA
		// Only metrics where B actually lost time are bottlenecks; a NaN
		// delta (NaN measurements on a side) fails the test and drops too.
		if !(b.Delta > 0) {
			continue
		}
		totalSlow += b.Delta
		out = append(out, b)
	}
	if totalSlow > 0 {
		for i := range out {
			out[i].Contribution = out[i].Delta / totalSlow
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Delta != out[j].Delta {
			return out[i].Delta > out[j].Delta
		}
		return out[i].Metric < out[j].Metric
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}
