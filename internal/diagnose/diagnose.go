// Package diagnose implements automated multi-execution performance
// diagnosis — the paper's §6 future-work item of moving beyond hand-built
// comparisons. Given two executions (or two pr-filter-selected sets of
// executions), it answers "why is side B slower than side A?" three ways:
//
//   - aligning results with compare.Sets and ranking per-context deltas
//     with compare.Rank (single-execution sides only),
//   - ranking metrics by their contribution to the slowdown with the same
//     compare.Rank (the bottleneck framing),
//   - searching the resource-attribute space for predicates that best
//     discriminate the slow side from the fast side (equality and
//     numeric-threshold candidates, scored by effect size × coverage,
//     PerfXplain-style), enumerated through the attribute index rather
//     than full resource scans.
//
// compare.Sets folds both sides once, giving the aligned pairs, each
// execution's perf and each metric's per-side sums. Predicate scoring and
// the per-execution footprint reads fan out through par, GOMAXPROCS wide,
// and merge in candidate and execution order, so a diagnosis is the same
// at any width.
package diagnose

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/obs"
	"perftrack/internal/par"
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
	// Contribution is Delta as a fraction of the total slowdown across
	// the metrics ranked: those B is slower on.
	Contribution float64
}

// ContextFinding is one aligned-context delta from compare.Sets, ranked
// by compare.Rank, produced only when both sides are single executions.
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
	// AlignedPairs counts result pairs aligned by compare.Sets
	// (single-execution sides only).
	AlignedPairs int
	Keys         int // attribute keys considered
	Candidates   int // predicates scored
	Explanations []Explanation
	Bottlenecks  []Bottleneck
	Contexts     []ContextFinding
	Trace        []string // search trace; populated when Spec.Explain
}

// Run executes a diagnosis against the store. Every phase stops once ctx
// is done: the reads of selection and features once per block or every
// 1024 IDs looked up, the enumeration before each attribute key, the
// scoring before each candidate.
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
	cmp, err := compare.Sets(featCtx, s, res.SideA, res.SideB)
	var feats *features
	if err == nil {
		feats, err = extractFeatures(featCtx, s, cmp)
	}
	if err != nil {
		featSpan.End()
		return nil, err
	}
	featSpan.Annotate("footprint_resources", strconv.Itoa(len(feats.resExecs)))
	featSpan.End()
	feats.profiles = profiles(cmp, spec.Metric)

	res.PerfA, res.PerfB = cmp.SidePerf(spec.Metric)
	res.Delta = res.PerfB - res.PerfA
	if res.PerfA == 0 {
		res.Ratio = math.NaN()
	} else {
		res.Ratio = res.PerfB / res.PerfA
	}

	if len(res.SideA) == 1 && len(res.SideB) == 1 {
		res.AlignedPairs = len(cmp.Pairs)
		for _, f := range compare.Rank(cmp.Pairs, spec.Metric, top) {
			res.Contexts = append(res.Contexts, ContextFinding{
				Context: f.Pair.Context, Metric: f.Pair.Metric, Units: f.Pair.Units,
				A: f.Pair.A, B: f.Pair.B, Delta: f.Delta, Contribution: f.Contribution,
			})
		}
		trace("aligned %d result pair(s) between %q and %q; %d slower-context finding(s)",
			res.AlignedPairs, res.SideA[0], res.SideB[0], len(res.Contexts))
	}
	for _, f := range compare.Rank(cmp.MetricMeans(), spec.Metric, top) {
		res.Bottlenecks = append(res.Bottlenecks, Bottleneck{
			Metric: f.Pair.Metric, Units: f.Pair.Units,
			MeanA: f.Pair.A, MeanB: f.Pair.B, Delta: f.Delta, Contribution: f.Contribution,
		})
	}

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
		if err := ctx.Err(); err != nil {
			enumSpan.End()
			return nil, fmt.Errorf("diagnose: enumerate: %w", err)
		}
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
	err = par.Range(len(cands), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			exs[i] = scoreCandidate(cands[i].pred, cands[i].matrix, feats.profiles)
		}
		return nil
	})
	scoreSpan.Annotate("workers", strconv.Itoa(par.Workers(len(cands))))
	scoreSpan.End()
	if err != nil {
		return nil, fmt.Errorf("diagnose: score: %w", err)
	}

	ranked := rankExplanations(exs)
	trace("%d of %d candidate(s) discriminate the sides (score > 0)", len(ranked), res.Candidates)
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	res.Explanations = ranked
	return res, nil
}
