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
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	OnlyA        []int64 // IDs of A's results with no counterpart in B, ascending
	OnlyB        []int64 // and of B's with none in A
}

// Executions is ExecutionsCtx with no caller to give up.
func Executions(s *datastore.Store, execA, execB string) (*Comparison, error) {
	return ExecutionsCtx(context.Background(), s, execA, execB)
}

// ExecutionsCtx aligns every performance result of two executions in a
// store. Results that align to the same key within one execution are
// averaged before pairing (several values measured at the same place).
// It reads columns, not results: each execution's result → focus links
// and its metric, units and value columns from the block source, and the
// resources of each distinct focus once. ctx is checked once per block.
func ExecutionsCtx(ctx context.Context, s *datastore.Store, execA, execB string) (*Comparison, error) {
	al := newAligner(s)
	sideA, err := al.side(ctx, execA)
	if err != nil {
		return nil, err
	}
	sideB, err := al.side(ctx, execB)
	if err != nil {
		return nil, err
	}
	if err := al.resolve(ctx); err != nil {
		return nil, err
	}
	ga, err := al.fold(ctx, sideA)
	if err != nil {
		return nil, err
	}
	gb, err := al.fold(ctx, sideB)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{ExecA: execA, ExecB: execB}
	for _, gi := range ga.order() {
		a := &ga.list[gi]
		bi, ok := gb.index[a.key]
		if !ok {
			continue
		}
		b := &gb.list[bi]
		cmp.Pairs = append(cmp.Pairs, Pair{
			Metric:  a.metric,
			Units:   a.units,
			A:       a.sum / float64(a.n),
			B:       b.sum / float64(b.n),
			Context: al.sets[a.set].context,
		})
	}
	cmp.OnlyA = ga.unpaired(sideA, gb)
	cmp.OnlyB = gb.unpaired(sideB, ga)
	return cmp, nil
}

// aligner computes an alignment once per distinct set of foci, however
// many results hold that set: an execution's results share few foci, so
// what a result costs is a lookup. A set's alignment is the sorted tokens
// of its portable resources — the union over its foci, as
// PerformanceResult.AllResources takes it — where a resource's token is
// its type and name, and a time resource's its base name.
type aligner struct {
	s     *datastore.Store
	sets  []focusSet
	setOf map[string]int32 // focus IDs, as bytes → index in sets
	buf   []byte
}

// focusSet is the foci a result holds, ascending, and once resolved its
// portable context and alignment.
type focusSet struct {
	foci    []int64
	context []core.ResourceName // portable resources, sorted by name
	tokens  string              // their tokens, sorted and NUL-separated
}

func newAligner(s *datastore.Store) *aligner {
	al := &aligner{s: s, setOf: make(map[string]int32)}
	al.intern(nil) // set 0: a result with no focus
	return al
}

// intern returns the index of the set of foci, adding it when new.
func (al *aligner) intern(foci []int64) int32 {
	al.buf = al.buf[:0]
	for _, f := range foci {
		al.buf = binary.LittleEndian.AppendUint64(al.buf, uint64(f))
	}
	if i, ok := al.setOf[string(al.buf)]; ok {
		return i
	}
	i := int32(len(al.sets))
	al.setOf[string(al.buf)] = i
	al.sets = append(al.sets, focusSet{foci: slices.Clone(foci)})
	return i
}

// side is one execution's results: their IDs, ascending, and the focus
// set each holds.
type side struct {
	ids []int64
	set []int32
}

// side reads which foci each result of exec holds, in one pass over
// result_has_focus.
func (al *aligner) side(ctx context.Context, exec string) (*side, error) {
	ids, err := al.s.ExecutionResultIDs(exec)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	sd := &side{ids: ids, set: make([]int32, len(ids))}
	// A result's links arrive together, ascending by focus ID.
	cur, foci := -1, []int64(nil)
	flush := func() {
		if cur >= 0 {
			sd.set[cur] = al.intern(foci)
		}
	}
	if err := al.s.ResultFoci(ctx, ids, func(i int, focus int64) {
		if i != cur {
			flush()
			cur, foci = i, foci[:0]
		}
		foci = append(foci, focus)
	}); err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	flush()
	return sd, nil
}

// resolve computes every focus set's portable context and alignment
// tokens, reading each distinct focus's resources once.
func (al *aligner) resolve(ctx context.Context) error {
	var fids []int64
	for _, fs := range al.sets {
		fids = append(fids, fs.foci...)
	}
	slices.Sort(fids)
	fids = slices.Compact(fids)
	names, err := al.s.FocusResources(ctx, fids)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	tokenOf := make(map[core.ResourceName]string)
	var res []core.ResourceName
	var tokens []string
	for i := range al.sets {
		fs := &al.sets[i]
		res = res[:0]
		for _, f := range fs.foci {
			j, _ := slices.BinarySearch(fids, f)
			res = append(res, names[j]...)
		}
		slices.Sort(res)
		res = slices.Compact(res)
		tokens = tokens[:0]
		for _, r := range res {
			tok, ok := tokenOf[r]
			if !ok {
				if tok, err = al.token(r); err != nil {
					return err
				}
				tokenOf[r] = tok
			}
			if tok != "" {
				fs.context = append(fs.context, r)
				tokens = append(tokens, tok)
			}
		}
		// Pairs share a set's context: clip it so an append copies.
		fs.context = slices.Clip(fs.context)
		sort.Strings(tokens)
		fs.tokens = strings.Join(tokens, "\x00")
	}
	return nil
}

// token is a resource's part of an alignment: "" for a resource of a
// non-portable hierarchy.
func (al *aligner) token(r core.ResourceName) (string, error) {
	tp, err := al.s.TypeOfResource(r)
	if err != nil {
		return "", fmt.Errorf("compare: %w", err)
	}
	switch root := tp.Root(); {
	case nonPortableRoots[root]:
		return "", nil
	case root == "time":
		// Align time phases by base name (e.g. "initialization").
		return "time:" + r.BaseName(), nil
	}
	return string(tp) + ":" + string(r), nil
}

// groupKey identifies the results of one execution that pair as one: a
// metric and an alignment.
type groupKey struct {
	metric int64
	tokens string
}

// group is one key's results, folded.
type group struct {
	key     groupKey
	sortKey string // metric name, NUL, alignment tokens: the order of Pairs
	metric  string
	units   string // of the group's first result
	set     int32  // focus set of the group's first result: the pair's context
	sum     float64
	n       int
}

// groups is one side folded by key.
type groups struct {
	list  []group
	index map[groupKey]int
	of    []int32 // group of each result
}

// fold sums one side's values per key. Values arrive in ascending result
// ID, the order a mean over the execution's materialized results adds
// them in, so every mean is the same float.
func (al *aligner) fold(ctx context.Context, sd *side) (*groups, error) {
	metrics, units := al.s.Dict("metric"), al.s.Dict("units")
	g := &groups{index: make(map[groupKey]int), of: make([]int32, len(sd.ids))}
	if err := al.s.ResultColumns(ctx, sd.ids, func(i int, metric, unit int64, value float64) error {
		unitName := units.Name(unit)
		if unitName == "" {
			return fmt.Errorf("no units id %d", unit)
		}
		fs := &al.sets[sd.set[i]]
		k := groupKey{metric, fs.tokens}
		gi, ok := g.index[k]
		if !ok {
			name := metrics.Name(metric)
			if name == "" {
				return fmt.Errorf("no metric id %d", metric)
			}
			gi = len(g.list)
			g.index[k] = gi
			g.list = append(g.list, group{key: k, sortKey: name + "\x00" + fs.tokens, metric: name, units: unitName, set: sd.set[i]})
		}
		gr := &g.list[gi]
		gr.sum += value
		gr.n++
		g.of[i] = int32(gi)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	return g, nil
}

// order returns the group indexes by sortKey.
func (g *groups) order() []int {
	idx := make([]int, len(g.list))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return g.list[idx[a]].sortKey < g.list[idx[b]].sortKey })
	return idx
}

// unpaired lists, ascending, the IDs of the results whose key other
// lacks.
func (g *groups) unpaired(sd *side, other *groups) []int64 {
	var out []int64
	for i, gi := range g.of {
		if _, ok := other.index[g.list[gi].key]; !ok {
			out = append(out, sd.ids[i])
		}
	}
	return out
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
