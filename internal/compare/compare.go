// Package compare implements the comparison operators listed in the
// paper's future-work section (§6) and exercised by the cross-platform
// case study (§4.1): aligning performance results from two executions by
// metric and comparable context, then computing differences, ratios,
// speedups, and regressions across whole executions.
//
// Alignment: two results correspond when they share a metric and a
// comparable context. Machine-specific resources (the grid hierarchy),
// execution-specific resources (the execution hierarchy and submissions),
// and per-run time intervals differ between any two runs by construction,
// so the alignment key keeps only resources from portable hierarchies —
// build, environment, application, and the like — plus the base names of
// time resources.
package compare

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
)

// nonPortableRoots are type-hierarchy roots whose resources never align
// across executions.
var nonPortableRoots = map[string]bool{
	"grid":       true,
	"execution":  true,
	"submission": true,
}

// alignmentKey builds the canonical key for one result.
func alignmentKey(s *datastore.Store, pr *core.PerformanceResult) (string, error) {
	var tokens []string
	for _, r := range pr.AllResources() {
		tp, err := s.TypeOfResource(r)
		if err != nil {
			return "", err
		}
		root := tp.Root()
		if nonPortableRoots[root] {
			continue
		}
		if root == "time" {
			// Align time phases by base name (e.g. "initialization").
			tokens = append(tokens, "time:"+r.BaseName())
			continue
		}
		tokens = append(tokens, string(tp)+":"+string(r))
	}
	sort.Strings(tokens)
	return pr.Metric + "\x00" + strings.Join(tokens, "\x00"), nil
}

// Pair is one aligned pair of values from two executions.
type Pair struct {
	Metric  string
	Context []core.ResourceName // portable context resources (from A)
	A, B    float64
	Units   string
}

// Difference is B - A.
func (p Pair) Difference() float64 { return p.B - p.A }

// Ratio is B / A; it is NaN when A is zero.
func (p Pair) Ratio() float64 {
	if p.A == 0 {
		return math.NaN()
	}
	return p.B / p.A
}

// Speedup is A / B — how much faster B is for time-like metrics; it is
// NaN when B is zero.
func (p Pair) Speedup() float64 {
	if p.B == 0 {
		return math.NaN()
	}
	return p.A / p.B
}

// PercentChange is 100 * (B - A) / A; it is NaN when A is zero.
func (p Pair) PercentChange() float64 {
	if p.A == 0 {
		return math.NaN()
	}
	return 100 * (p.B - p.A) / p.A
}

// Comparison is the aligned view of two executions.
type Comparison struct {
	ExecA, ExecB string
	Pairs        []Pair
	OnlyA        []*core.PerformanceResult // results with no counterpart in B
	OnlyB        []*core.PerformanceResult
}

// Executions aligns every performance result of two executions in a
// store. Results that align to the same key within one execution are
// averaged before pairing (several values measured at the same place).
func Executions(s *datastore.Store, execA, execB string) (*Comparison, error) {
	load := func(exec string) (map[string][]*core.PerformanceResult, error) {
		resA, err := resultsOfExecution(s, exec)
		if err != nil {
			return nil, err
		}
		keyed := make(map[string][]*core.PerformanceResult)
		for _, pr := range resA {
			k, err := alignmentKey(s, pr)
			if err != nil {
				return nil, err
			}
			keyed[k] = append(keyed[k], pr)
		}
		return keyed, nil
	}
	keyedA, err := load(execA)
	if err != nil {
		return nil, err
	}
	keyedB, err := load(execB)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{ExecA: execA, ExecB: execB}
	var keys []string
	for k := range keyedA {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		as := keyedA[k]
		bs, ok := keyedB[k]
		if !ok {
			cmp.OnlyA = append(cmp.OnlyA, as...)
			continue
		}
		pair := Pair{
			Metric: as[0].Metric,
			Units:  as[0].Units,
			A:      mean(as),
			B:      mean(bs),
		}
		for _, r := range as[0].AllResources() {
			tp, err := s.TypeOfResource(r)
			if err != nil {
				return nil, err
			}
			if !nonPortableRoots[tp.Root()] {
				pair.Context = append(pair.Context, r)
			}
		}
		cmp.Pairs = append(cmp.Pairs, pair)
	}
	var bKeys []string
	for k := range keyedB {
		if _, ok := keyedA[k]; !ok {
			bKeys = append(bKeys, k)
		}
	}
	sort.Strings(bKeys)
	for _, k := range bKeys {
		cmp.OnlyB = append(cmp.OnlyB, keyedB[k]...)
	}
	return cmp, nil
}

func mean(prs []*core.PerformanceResult) float64 {
	sum := 0.0
	for _, pr := range prs {
		sum += pr.Value
	}
	return sum / float64(len(prs))
}

// resultsOfExecution materializes every result of one execution through
// the store's execution index.
func resultsOfExecution(s *datastore.Store, exec string) ([]*core.PerformanceResult, error) {
	out, err := s.ResultsOfExecution(exec)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	return out, nil
}

// Regression flags a pair whose B value exceeds A by more than the given
// fraction (e.g. 0.10 for 10% slower).
type Regression struct {
	Pair    Pair
	Percent float64
}

// Regressions returns pairs where execution B regressed relative to A by
// more than threshold (a fraction), sorted worst-first.
func (c *Comparison) Regressions(threshold float64) []Regression {
	var out []Regression
	for _, p := range c.Pairs {
		if p.A <= 0 {
			continue
		}
		pc := (p.B - p.A) / p.A
		if pc > threshold {
			out = append(out, Regression{Pair: p, Percent: pc * 100})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Percent > out[j].Percent })
	return out
}

// Improvements returns pairs where B improved on A by more than
// threshold, sorted best-first.
func (c *Comparison) Improvements(threshold float64) []Regression {
	var out []Regression
	for _, p := range c.Pairs {
		if p.A <= 0 {
			continue
		}
		pc := (p.A - p.B) / p.A
		if pc > threshold {
			out = append(out, Regression{Pair: p, Percent: pc * 100})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Percent > out[j].Percent })
	return out
}

// Summary aggregates a comparison.
type Summary struct {
	Paired       int
	OnlyA, OnlyB int
	GeoMeanRatio float64 // geometric mean of B/A over positive pairs
	MeanDiff     float64
}

// Summarize computes aggregate comparison statistics.
func (c *Comparison) Summarize() Summary {
	s := Summary{Paired: len(c.Pairs), OnlyA: len(c.OnlyA), OnlyB: len(c.OnlyB)}
	logSum, logN := 0.0, 0
	diffSum := 0.0
	for _, p := range c.Pairs {
		diffSum += p.Difference()
		if p.A > 0 && p.B > 0 {
			logSum += math.Log(p.B / p.A)
			logN++
		}
	}
	if len(c.Pairs) > 0 {
		s.MeanDiff = diffSum / float64(len(c.Pairs))
	}
	if logN > 0 {
		s.GeoMeanRatio = math.Exp(logSum / float64(logN))
	} else {
		s.GeoMeanRatio = math.NaN()
	}
	return s
}

// Finding is one diagnosed bottleneck: an aligned pair ranked by its
// contribution to the total slowdown between the two executions.
type Finding struct {
	Pair Pair
	// Delta is B - A for this pair (positive = slower in B).
	Delta float64
	// Contribution is Delta as a fraction of the total positive slowdown
	// across all pairs, in [0, 1].
	Contribution float64
}

// DiagnoseBottlenecks implements §6's multi-execution diagnosis: it ranks
// the contexts responsible for execution B being slower than A. Only
// pairs whose metric matches (empty = all time-like pairs, i.e. units
// containing "second") and whose delta is positive participate. The topN
// largest contributors are returned, sorted.
func (c *Comparison) DiagnoseBottlenecks(metric string, topN int) []Finding {
	var findings []Finding
	totalSlow := 0.0
	for _, p := range c.Pairs {
		if metric != "" && p.Metric != metric {
			continue
		}
		if metric == "" && !strings.Contains(p.Units, "second") {
			continue
		}
		d := p.Difference()
		if d <= 0 {
			continue
		}
		totalSlow += d
		findings = append(findings, Finding{Pair: p, Delta: d})
	}
	if totalSlow > 0 {
		for i := range findings {
			findings[i].Contribution = findings[i].Delta / totalSlow
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Delta > findings[j].Delta })
	if topN > 0 && len(findings) > topN {
		findings = findings[:topN]
	}
	return findings
}

// FilterMetric keeps only pairs with the given metric.
func (c *Comparison) FilterMetric(metric string) *Comparison {
	out := &Comparison{ExecA: c.ExecA, ExecB: c.ExecB}
	for _, p := range c.Pairs {
		if p.Metric == metric {
			out.Pairs = append(out.Pairs, p)
		}
	}
	return out
}
