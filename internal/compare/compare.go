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

// Comparison is the aligned view of two sides of executions, and what a
// diagnosis measures on them.
type Comparison struct {
	ExecA, ExecB string // each side's executions, comma-separated
	Pairs        []Pair
	OnlyA        []int64 // IDs of A's results with no counterpart in B, ascending
	OnlyB        []int64 // and of B's with none in A
	// Execs is every execution folded: side A's, then side B's, each in
	// the order given.
	Execs []Execution
	// Metrics is every metric met, in the order first met.
	Metrics []Metric
	// onlyMetric is the metric of each result in OnlyA and OnlyB.
	onlyMetric map[int64]string
}

// Sum is a running sum of values and their count.
type Sum struct {
	Sum float64
	N   int
}

func (s *Sum) add(v float64) {
	s.Sum += v
	s.N++
}

// Mean is Sum / N; NaN when N is 0.
func (s Sum) Mean() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.N)
}

// Execution is one execution's results, summed under each metric
// selection.
type Execution struct {
	Name string
	Side int // 0 = A, 1 = B
	// Resources is the distinct resources of its results' contexts,
	// ascending by ID.
	Resources []int64
	time      Sum   // its time-like results
	metrics   []Sum // its results of each metric, by index into Comparison.Metrics
	ids       []int64
	cell      []int32 // the cell of each result, among its side's
}

// Metric is one metric's results summed on each side (Sides[0] is A's);
// Units are those of its first result, side A's first.
type Metric struct {
	Name, Units string
	Sides       [2]Sum
}

// selects is the one metric selection of comparison and diagnosis: a
// result of the named metric or, with none named, a time-like one (units
// containing "second").
func selects(metric, name, units string) bool {
	if metric != "" {
		return name == metric
	}
	return strings.Contains(units, "second")
}

// Executions aligns one execution with another; kept only because
// bench/e2e's frozen replay calls it.
func Executions(s *datastore.Store, execA, execB string) (*Comparison, error) {
	return Sets(context.Background(), s, []string{execA}, []string{execB})
}

// Sets aligns every performance result of two sides of executions in a
// store, one execution at a time: its result IDs, its result → focus
// links, the resources of each distinct focus and its metric, units and
// value columns are each read once. A pair's A is the mean of side A's
// results in its cell (a metric and an alignment), B likewise. The same
// pass sums each execution's results per metric and its time-like ones,
// and each metric's results per side. Every sum adds in side order and
// ascending result ID within an execution, the order a fold over
// materialized results takes, so each is the same float. ctx is checked
// once per block read, or every 1024 IDs read by lookup.
func Sets(ctx context.Context, s *datastore.Store, execsA, execsB []string) (*Comparison, error) {
	c := &Comparison{ExecA: strings.Join(execsA, ","), ExecB: strings.Join(execsB, ",")}
	al := &aligner{s: s, c: c, metricOf: make(map[int64]int), tokenOf: make(map[int64]string), alignOf: make(map[string]int32), setOf: make(map[string]int32)}
	for i, exec := range append(append(make([]string, 0, len(execsA)+len(execsB)), execsA...), execsB...) {
		e := Execution{Name: exec}
		if i >= len(execsA) {
			e.Side = 1
		}
		if err := al.execution(ctx, &e); err != nil {
			return nil, fmt.Errorf("compare: %w", err)
		}
		c.Execs = append(c.Execs, e)
	}
	cells := &al.cells
	c.onlyMetric = make(map[int64]string)
	for i := range c.Execs {
		e := &c.Execs[i]
		own, other, only := &cells[e.Side], &cells[1-e.Side], &c.OnlyA
		if e.Side == 1 {
			only = &c.OnlyB
		}
		for j, ci := range e.cell {
			if _, ok := other.find(own.list[ci].align, own.list[ci].metric); !ok {
				*only = append(*only, e.ids[j])
				c.onlyMetric[e.ids[j]] = c.Metrics[own.list[ci].metric].Name
			}
		}
		e.ids, e.cell = nil, nil // read no more
	}
	slices.Sort(c.OnlyA)
	slices.Sort(c.OnlyB)
	// A's cells in pair order; what they index is read no more.
	slices.SortFunc(cells[0].list, func(x, y cell) int { return strings.Compare(x.sortKey, y.sortKey) })
	for _, a := range cells[0].list {
		if bi, ok := cells[1].find(a.align, a.metric); ok {
			c.Pairs = append(c.Pairs, Pair{
				Metric:  c.Metrics[a.metric].Name,
				Units:   a.units,
				A:       a.sum.Mean(),
				B:       cells[1].list[bi].sum.Mean(),
				Context: a.context,
			})
		}
	}
	return c, nil
}

// Perf is execution i's mean under a metric selection: its results of
// the named metric or, with none named, its time-like ones. ok is false
// when it has no such result.
func (c *Comparison) Perf(i int, metric string) (perf float64, ok bool) {
	e := &c.Execs[i]
	sum := e.time
	if metric != "" {
		sum = Sum{}
		for m := range e.metrics {
			if c.Metrics[m].Name == metric {
				sum = e.metrics[m]
			}
		}
	}
	return sum.Mean(), sum.N > 0
}

// SidePerf means Perf over each side's executions that have one; NaN for
// a side with none.
func (c *Comparison) SidePerf(metric string) (a, b float64) {
	var sides [2]Sum
	for i, e := range c.Execs {
		if perf, ok := c.Perf(i, metric); ok {
			sides[e.Side].add(perf)
		}
	}
	return sides[0].Mean(), sides[1].Mean()
}

// MetricMeans pairs each metric met on both sides as its mean per result
// on each, by metric name: the pairs Rank ranks as bottlenecks.
func (c *Comparison) MetricMeans() []Pair {
	var out []Pair
	for _, m := range c.Metrics {
		if m.Sides[0].N > 0 && m.Sides[1].N > 0 {
			out = append(out, Pair{Metric: m.Name, Units: m.Units, A: m.Sides[0].Mean(), B: m.Sides[1].Mean()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// aligner folds one execution at a time into its side's cells. Within an
// execution it computes an alignment once per distinct set of foci,
// however many results hold that set: an execution's results share few
// foci, so what a result costs is a lookup. A set's alignment is the
// sorted tokens of its portable resources — the union over its foci, as
// PerformanceResult.AllResources takes it — where a resource's token is
// its type and name, and a time resource's its base name.
type aligner struct {
	s        *datastore.Store
	c        *Comparison
	metricOf map[int64]int    // metric ID → index in c.Metrics
	tokenOf  map[int64]string // resource ID → token
	alignOf  map[string]int32 // alignment tokens → index in tokens
	tokens   []string         // each alignment's tokens, sorted and NUL-separated
	cells    [2]cells         // side A's, side B's
	buf      []byte
	// The execution being folded: the focus set each result holds, and
	// each set; the foci each holds, and their resources.
	set      []int32
	sets     []focusSet
	setOf    map[string]int32 // focus IDs, as bytes → index in sets
	foci     []int64          // every set's foci, one stretch each
	last     int32            // the set intern returned last
	fids     []int64          // the distinct foci, ascending
	rids     [][]int64        // each distinct focus's resources
	arena    []int64          // the resources rids holds
	distinct []int64          // the execution's distinct resources
	res      datastore.Dict   // resource names
}

// focusSet is the foci a result holds, ascending (al.foci[lo:hi]), and
// once resolved its alignment.
type focusSet struct {
	lo, hi int
	align  int32
}

// execution folds one execution: it reads the focus set each result
// holds, resolves each set's alignment, and folds the result columns.
func (al *aligner) execution(ctx context.Context, e *Execution) error {
	ids, err := al.s.ExecutionResultIDs(e.Name)
	if err != nil {
		return err
	}
	e.ids, e.cell = ids, make([]int32, len(ids))
	// Set 0 is a result with no focus.
	al.set = append(al.set[:0], make([]int32, len(ids))...)
	al.sets, al.foci, al.last = append(al.sets[:0], focusSet{}), al.foci[:0], 0
	clear(al.setOf)
	al.setOf[""] = 0
	// A result's links arrive together, ascending by focus ID.
	cur, foci := -1, []int64(nil)
	flush := func() {
		if cur >= 0 {
			al.set[cur] = al.intern(foci)
		}
	}
	if err := al.s.ResultFoci(ctx, ids, func(i int, focus int64) {
		if i != cur {
			flush()
			cur, foci = i, foci[:0]
		}
		foci = append(foci, focus)
	}); err != nil {
		return err
	}
	flush()
	if err := al.resolve(ctx); err != nil {
		return err
	}
	// Every focus's resources, deduplicated in reused storage: an
	// execution keeps only its distinct resources, exactly sized.
	all := al.distinct[:0]
	for _, r := range al.rids {
		all = append(all, r...)
	}
	slices.Sort(all)
	al.distinct = slices.Compact(all)
	e.Resources = slices.Clone(al.distinct)
	return al.fold(ctx, e, &al.cells[e.Side])
}

// intern returns the index of the set of foci, adding it when new.
// Neighbouring results mostly hold the same foci, so the set last
// returned is tried first.
func (al *aligner) intern(foci []int64) int32 {
	if l := al.sets[al.last]; slices.Equal(al.foci[l.lo:l.hi], foci) {
		return al.last
	}
	al.buf = al.buf[:0]
	for _, f := range foci {
		al.buf = binary.LittleEndian.AppendUint64(al.buf, uint64(f))
	}
	i, ok := al.setOf[string(al.buf)]
	if !ok {
		i = int32(len(al.sets))
		al.setOf[string(al.buf)] = i
		al.sets = append(al.sets, focusSet{lo: len(al.foci), hi: len(al.foci) + len(foci)})
		al.foci = append(al.foci, foci...)
	}
	al.last = i
	return i
}

// resolve computes every focus set's alignment, reading each distinct
// focus's resources once.
func (al *aligner) resolve(ctx context.Context) error {
	al.fids = append(al.fids[:0], al.foci...)
	slices.Sort(al.fids)
	al.fids = slices.Compact(al.fids)
	var err error
	if al.rids, al.arena, err = al.s.FocusResources(ctx, al.fids, al.rids, al.arena); err != nil {
		return err
	}
	al.res = al.s.Dict("resource_item")
	var res []int64
	var tokens []string
	for i := range al.sets {
		res = al.resources(res[:0], int32(i))
		tokens = tokens[:0]
		for _, r := range res {
			tok, ok := al.tokenOf[r]
			if !ok {
				if tok, err = al.token(r); err != nil {
					return err
				}
				al.tokenOf[r] = tok
			}
			if tok != "" {
				tokens = append(tokens, tok)
			}
		}
		sort.Strings(tokens)
		al.buf = al.buf[:0]
		for j, tok := range tokens {
			if j > 0 {
				al.buf = append(al.buf, 0)
			}
			al.buf = append(al.buf, tok...)
		}
		a, ok := al.alignOf[string(al.buf)]
		if !ok {
			a = int32(len(al.tokens))
			al.alignOf[string(al.buf)] = a
			al.tokens = append(al.tokens, string(al.buf))
		}
		al.sets[i].align = a
	}
	return nil
}

// resources appends the resources of a focus set's foci to res,
// ascending by ID and without duplicates.
func (al *aligner) resources(res []int64, set int32) []int64 {
	for _, f := range al.foci[al.sets[set].lo:al.sets[set].hi] {
		j, _ := slices.BinarySearch(al.fids, f)
		res = append(res, al.rids[j]...)
	}
	slices.Sort(res)
	return slices.Compact(res)
}

// token is a resource's part of an alignment: "" for a resource of a
// non-portable hierarchy.
func (al *aligner) token(id int64) (string, error) {
	r := core.ResourceName(al.res.Name(id))
	tp, err := al.s.TypeOfResource(r)
	if err != nil {
		return "", err
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

// cell is the results of one side that pair as one, summed: those of a
// metric with an alignment.
type cell struct {
	metric  int    // index in Comparison.Metrics
	align   int32  // index in aligner.tokens
	sortKey string // metric name, NUL, alignment tokens: the order of Pairs
	units   string // of the cell's first result
	// context is the portable resources of the cell's first result,
	// sorted by name: the pair's context (side A's cells only).
	context []core.ResourceName
	sum     Sum
}

// cells is one side's cells, found by alignment, then metric.
type cells struct {
	list []cell
	at   [][]int32 // 1 + index in list; 0 = none
}

// find returns the index of the cell of an alignment and a metric.
func (cs *cells) find(align int32, metric int) (int32, bool) {
	if int(align) >= len(cs.at) || metric >= len(cs.at[align]) || cs.at[align][metric] == 0 {
		return 0, false
	}
	return cs.at[align][metric] - 1, true
}

// fold adds one execution's values to its sums, its side's metric sums
// and its side's cells.
func (al *aligner) fold(ctx context.Context, e *Execution, cs *cells) error {
	metrics, units := al.s.Dict("metric"), al.s.Dict("units")
	cs.at = append(cs.at, make([][]int32, len(al.tokens)-len(cs.at))...)
	return al.s.ResultColumns(ctx, e.ids, func(i int, metric, unit int64, value float64) error {
		unitName := units.Name(unit)
		if unitName == "" {
			return fmt.Errorf("no units id %d", unit)
		}
		mi, ok := al.metricOf[metric]
		if !ok {
			name := metrics.Name(metric)
			if name == "" {
				return fmt.Errorf("no metric id %d", metric)
			}
			mi = len(al.c.Metrics)
			al.metricOf[metric] = mi
			al.c.Metrics = append(al.c.Metrics, Metric{Name: name, Units: unitName})
		}
		m := &al.c.Metrics[mi]
		m.Sides[e.Side].add(value)
		for len(e.metrics) <= mi {
			e.metrics = append(e.metrics, Sum{})
		}
		e.metrics[mi].add(value)
		if selects("", m.Name, unitName) {
			e.time.add(value)
		}
		align := al.sets[al.set[i]].align
		ci, ok := cs.find(align, mi)
		if !ok {
			ci = int32(len(cs.list))
			c := cell{metric: mi, align: align, sortKey: m.Name + "\x00" + al.tokens[align], units: unitName}
			if e.Side == 0 {
				for _, r := range al.resources(nil, al.set[i]) {
					if al.tokenOf[r] != "" {
						c.context = append(c.context, core.ResourceName(al.res.Name(r)))
					}
				}
				slices.Sort(c.context)
			}
			cs.list = append(cs.list, c)
			at := &cs.at[align]
			*at = append(*at, make([]int32, max(mi+1-len(*at), 0))...)
			(*at)[mi] = ci + 1
		}
		cs.list[ci].sum.add(value)
		e.cell[i] = ci
		return nil
	})
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
	return c.beyond(threshold, 1)
}

// Improvements returns pairs where B improved on A by more than
// threshold, sorted best-first.
func (c *Comparison) Improvements(threshold float64) []Regression {
	return c.beyond(threshold, -1)
}

// beyond returns the pairs whose change from A, in direction dir (1 = B
// larger), is more than threshold, largest first.
func (c *Comparison) beyond(threshold, dir float64) []Regression {
	var out []Regression
	for _, p := range c.Pairs {
		if p.A <= 0 {
			continue
		}
		pc := dir * (p.B - p.A) / p.A
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

// Finding is one ranked slowdown: a pair and its share of the total
// slowdown between the two sides.
type Finding struct {
	Pair Pair
	// Delta is B - A for this pair (positive = slower in B).
	Delta float64
	// Contribution is Delta as a fraction of the total positive slowdown
	// across the ranked pairs, in [0, 1].
	Contribution float64
}

// Rank is §6's multi-execution diagnosis, the one ranker of aligned
// contexts and of metrics (MetricMeans): it ranks the pairs responsible
// for side B being slower than A. A pair counts when the metric
// selection holds it (the named metric, else units containing "second")
// and its delta is positive; a NaN delta (a NaN measurement) is not. The
// top largest deltas are returned (0 = all), ties in the order given.
func Rank(pairs []Pair, metric string, top int) []Finding {
	var out []Finding
	total := 0.0
	for _, p := range pairs {
		if d := p.Difference(); d > 0 && selects(metric, p.Metric, p.Units) {
			total += d
			out = append(out, Finding{Pair: p, Delta: d})
		}
	}
	for i := range out {
		out[i].Contribution = out[i].Delta / total
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// FilterMetric keeps only the pairs and the unpaired results of the
// given metric.
func (c *Comparison) FilterMetric(metric string) *Comparison {
	out := &Comparison{ExecA: c.ExecA, ExecB: c.ExecB, onlyMetric: c.onlyMetric}
	for _, p := range c.Pairs {
		if p.Metric == metric {
			out.Pairs = append(out.Pairs, p)
		}
	}
	of := func(ids []int64) []int64 {
		return slices.DeleteFunc(slices.Clone(ids), func(id int64) bool { return c.onlyMetric[id] != metric })
	}
	out.OnlyA, out.OnlyB = of(c.OnlyA), of(c.OnlyB)
	return out
}
