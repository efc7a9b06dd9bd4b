package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/client"
	"perftrack/internal/server"
)

// Op kinds. Names are part of the benchmark's interface: per-layer
// metrics are called client.<kind>.p50_ms.
const (
	opLoadDoc    = "load_doc"
	opLoadSmall  = "load_small"
	opCountHot   = "count_hot"
	opCountCold  = "count_cold"
	opSQLHot     = "sql_hot"
	opSQLCold    = "sql_cold"
	opPage       = "page"
	opAttrs      = "attrs"
	opStreamExec = "stream_exec"
	opCompare    = "compare"
	opPageBig    = "page_big"
	opDiagnose   = "diagnose"
)

var opKinds = []string{
	opLoadDoc, opLoadSmall, opCountHot, opCountCold, opSQLHot, opSQLCold,
	opPage, opAttrs, opStreamExec, opCompare, opPageBig, opDiagnose,
}

// op is one request with its answer check built in.
type op struct {
	kind string
	// key is the canonical text of the request; two op lists are the same
	// work exactly when their (kind, key) sequences are equal.
	key string
	// ptdfBytes and results are what a successful load acknowledges.
	ptdfBytes int
	results   int
	// do sends the request through the client and returns an error when
	// the call fails or the answer differs from the oracle's.
	do func(ctx context.Context, cl *client.Client) error
}

// hotCounts and hotSQL are the sizes of the repeated pools. Both fit the
// program's caches (1024 match-cache entries, 32 MiB plan cache) with
// room to spare; the cold streams never repeat, so they can never hit.
const (
	hotCounts = 32
	hotSQL    = 16
	pagePool  = 64
)

// opGen turns the corpus and a seed into op lists. Cold streams draw
// from never-repeating sequences that advance across calls, so a
// warm-up list and the measured list share no cold request.
type opGen struct {
	c   *corpus.Corpus
	rng *rand.Rand

	hotCount [][]corpus.Family
	hotSQL   []sqlQuery
	pages    [][]corpus.Family

	coldA    []int // permutation of the (exec, func, proc) combinations
	nextCold int
	usedT    map[int]bool // cold SQL constants already issued, in 1e-4 units
	nextDoc  int
	nextTiny int
}

func newOpGen(c *corpus.Corpus, seed int64) *opGen {
	g := &opGen{c: c, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), usedT: map[int]bool{}}
	n := len(c.Execs)

	// Hot pr-filters: two- and three-family combinations over machines,
	// attributes, modules and functions. None names a process or a single
	// execution, which every cold filter does, so the streams are disjoint.
	var cand [][]corpus.Family
	for m := 0; m < corpus.Machines; m++ {
		for f := 0; f < corpus.Full.Funcs; f++ {
			cand = append(cand, []corpus.Family{c.FamMachine(m), c.FamFunc(f)})
		}
		for _, np := range []string{"64", "128"} {
			cand = append(cand, []corpus.Family{c.FamAttr("machine", fmt.Sprintf("M%d", m)), c.FamAttr("nprocs", np)})
		}
	}
	for _, comp := range []string{"-O2", "-O0"} {
		for mod := 0; mod < 2; mod++ {
			for _, deck := range []string{"std.deck", "large.deck"} {
				cand = append(cand, []corpus.Family{c.FamAttr("compiler", comp), c.FamModule(mod), c.FamAttr("inputdeck", deck)})
			}
		}
	}
	for _, i := range g.rng.Perm(len(cand))[:hotCounts] {
		g.hotCount = append(g.hotCount, cand[i])
	}

	// Hot statements: three aggregate shapes at seed-chosen two-decimal
	// thresholds (cold constants carry four decimals, so the texts — the
	// plan-cache keys — can never collide).
	for i := 0; i < hotSQL; i++ {
		t := math.Round((corpus.MinThreshold+2+float64(i)*4+g.rng.Float64()*3)*100) / 100
		switch {
		case i < 8:
			g.hotSQL = append(g.hotSQL, byMetricSQL(c, fmt.Sprintf("%.2f", t), t))
		case i < 12:
			g.hotSQL = append(g.hotSQL, byExecSQL(c, fmt.Sprintf("%.2f", t), t))
		default:
			g.hotSQL = append(g.hotSQL, oneMetricSQL(c, fmt.Sprintf("%.2f", t), t, i%corpus.Full.Metrics))
		}
	}

	var pageCand [][]corpus.Family
	for e := 0; e < n; e++ {
		for f := 0; f < corpus.Full.Funcs; f++ {
			pageCand = append(pageCand, []corpus.Family{c.FamExec(e), c.FamFunc(f)})
		}
	}
	for _, i := range g.rng.Perm(len(pageCand)) {
		if len(g.pages) == pagePool {
			break
		}
		g.pages = append(g.pages, pageCand[i])
	}

	g.coldA = g.rng.Perm(n * corpus.Full.Funcs * corpus.Full.Procs)
	return g
}

// --- pr-filter counts ---

func specs(fams []corpus.Family) []string {
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Spec
	}
	return out
}

func (g *opGen) countOp(kind string, fams []corpus.Family) op {
	want := g.c.Count(fams...)
	single := make([]int, len(fams))
	for i, f := range fams {
		single[i] = g.c.Count(f)
	}
	sp := specs(fams)
	return op{kind: kind, key: strings.Join(sp, " & "), do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Query(ctx, sp)
		if err != nil {
			return err
		}
		if resp.Matches != want {
			return fmt.Errorf("pr-filter %v matched %d results, oracle says %d", sp, resp.Matches, want)
		}
		if len(resp.Families) != len(fams) {
			return fmt.Errorf("pr-filter %v: %d family counts for %d families", sp, len(resp.Families), len(fams))
		}
		for i, fc := range resp.Families {
			if fc.Matches != single[i] {
				return fmt.Errorf("family %q matched %d results, oracle says %d", sp[i], fc.Matches, single[i])
			}
		}
		return nil
	}}
}

func (g *opGen) hotCountOp() op {
	return g.countOp(opCountHot, g.hotCount[g.rng.Intn(len(g.hotCount))])
}

// coldFamilies draws the next never-repeated family combination: mostly
// (execution, function, process rank), and every eighth one an
// attribute-selected (compiler, node, function) while those last. The
// stream is finite and panics rather than repeat a filter; checkSizes
// refuses a -seconds that would get there.
func (g *opGen) coldFamilies() []corpus.Family {
	k := g.nextCold
	g.nextCold++
	c := g.c
	const nodes = corpus.Machines * corpus.NodesPer
	const attrCombos = 2 * nodes * 8
	if k%8 == 7 && k/8 < attrCombos {
		j := k / 8
		return []corpus.Family{
			c.FamAttr("compiler", []string{"-O2", "-O0"}[j%2]),
			c.FamNode(j/2%nodes/corpus.NodesPer, j/2%corpus.NodesPer),
			c.FamFunc(j / 2 / nodes),
		}
	}
	i := k - min(k/8, attrCombos)
	if i >= len(g.coldA) {
		// Wrapping around would repeat a filter, the match cache would
		// serve it, and count_cold would silently turn hot.
		panic(fmt.Sprintf("bench/e2e: cold pr-filter stream exhausted after %d filters: the op list is too long for a corpus of %d executions", k, len(g.c.Execs)))
	}
	j := g.coldA[i]
	return []corpus.Family{
		c.FamExec(j / (corpus.Full.Funcs * corpus.Full.Procs)),
		c.FamFunc(j / corpus.Full.Procs % corpus.Full.Funcs),
		c.FamProc(j % corpus.Full.Procs),
	}
}

func (g *opGen) coldCountOp() op { return g.countOp(opCountCold, g.coldFamilies()) }

// --- SQL ---

type sqlQuery struct {
	text string
	want [][]any // string or float64 cells, in result order
}

func sortedMetricOrder() []int {
	idx := make([]int, corpus.Full.Metrics)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		na, _ := corpus.Metric(idx[a])
		nb, _ := corpus.Metric(idx[b])
		return na < nb
	})
	return idx
}

// byMetricSQL is the statement family of sql_cold: a grouped aggregate
// whose constant lies inside the value range of every segment, so
// neither the plan cache nor zone maps can short-circuit it.
func byMetricSQL(c *corpus.Corpus, lit string, t float64) sqlQuery {
	q := sqlQuery{text: "SELECT metric, count(*), avg(value) FROM performance_result WHERE value > " + lit + " GROUP BY metric ORDER BY metric"}
	aggs := c.AboveByMetric(t)
	for _, m := range sortedMetricOrder() {
		if a := aggs[m]; a.Count > 0 {
			name, _ := corpus.Metric(m)
			q.want = append(q.want, []any{name, float64(a.Count), a.Avg()})
		}
	}
	return q
}

func byExecSQL(c *corpus.Corpus, lit string, t float64) sqlQuery {
	q := sqlQuery{text: "SELECT execution, count(*), max(value) FROM performance_result WHERE value > " + lit + " GROUP BY execution ORDER BY execution"}
	for i, a := range c.AboveByExec(t) {
		if a.Count > 0 {
			q.want = append(q.want, []any{c.Execs[i].Name, float64(a.Count), a.Max})
		}
	}
	return q
}

func oneMetricSQL(c *corpus.Corpus, lit string, t float64, m int) sqlQuery {
	name, _ := corpus.Metric(m)
	a := c.AboveByMetric(t)[m]
	return sqlQuery{
		text: "SELECT count(*), sum(value), min(value) FROM performance_result WHERE value > " + lit + " AND metric = '" + name + "'",
		want: [][]any{{float64(a.Count), a.Sum, a.Min}},
	}
}

// sameCell compares one SQL cell; floats may differ in the last bits
// because the server sums in segment order and the oracle in value order.
func sameCell(got, want any) bool {
	switch w := want.(type) {
	case string:
		s, ok := got.(string)
		return ok && s == w
	case float64:
		f, ok := got.(float64)
		return ok && math.Abs(f-w) <= 1e-9*math.Max(1, math.Abs(w))
	}
	return false
}

func (g *opGen) sqlOp(kind string, q sqlQuery) op {
	return op{kind: kind, key: q.text, do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.SQL(ctx, server.SQLRequest{SQL: q.text})
		if err != nil {
			return err
		}
		if len(resp.Rows) != len(q.want) {
			return fmt.Errorf("%s: %d rows, oracle says %d", q.text, len(resp.Rows), len(q.want))
		}
		for i, row := range resp.Rows {
			if len(row) != len(q.want[i]) {
				return fmt.Errorf("%s: row %d has %d cells, want %d", q.text, i, len(row), len(q.want[i]))
			}
			for j := range row {
				if !sameCell(row[j], q.want[i][j]) {
					return fmt.Errorf("%s: row %d cell %d is %v, oracle says %v", q.text, i, j, row[j], q.want[i][j])
				}
			}
		}
		return nil
	}}
}

func (g *opGen) hotSQLOp() op { return g.sqlOp(opSQLHot, g.hotSQL[g.rng.Intn(len(g.hotSQL))]) }

// coldSQL draws the next never-repeated sql_cold statement: a unique
// four-decimal constant in [15, 85), inside every segment's value range,
// so zone maps prune nothing.
func (g *opGen) coldSQL() sqlQuery {
	for {
		u := 150000 + g.rng.Intn(700000)
		if g.usedT[u] || u%100 == 0 {
			continue
		}
		g.usedT[u] = true
		t := float64(u) / 1e4
		return byMetricSQL(g.c, fmt.Sprintf("%.4f", t), t)
	}
}

func (g *opGen) coldSQLOp() op { return g.sqlOp(opSQLCold, g.coldSQL()) }

// --- retrieval ---

func (g *opGen) pageOp() op {
	fams := g.pages[g.rng.Intn(len(g.pages))]
	want := g.c.Count(fams...)
	const limit = 200
	req := server.ResultsRequest{Families: specs(fams), Limit: limit}
	return op{kind: opPage, key: strings.Join(req.Families, " & "), do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Results(ctx, req)
		if err != nil {
			return err
		}
		if resp.Total != want || len(resp.Rows) != min(limit, want) {
			return fmt.Errorf("page %v: total %d with %d rows, oracle says %d with %d", req.Families, resp.Total, len(resp.Rows), want, min(limit, want))
		}
		return nil
	}}
}

func (g *opGen) attrsOp() op {
	attr := corpus.AttrNames[g.rng.Intn(len(corpus.AttrNames))]
	distinct := map[string]bool{}
	for _, e := range g.c.Execs {
		distinct[e.Attr(attr)] = true
	}
	return op{kind: opAttrs, key: attr, do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Attributes(ctx, attr)
		if err != nil {
			return err
		}
		if len(resp.Keys) != 1 || resp.Keys[0].Name != attr || resp.Keys[0].Resources != len(g.c.Execs) || resp.Keys[0].Distinct != len(distinct) {
			return fmt.Errorf("attributes %q: got %+v, oracle says %d resources with %d distinct values", attr, resp.Keys, len(g.c.Execs), len(distinct))
		}
		return nil
	}}
}

func (g *opGen) streamExecOp() op {
	e := g.c.Execs[g.rng.Intn(len(g.c.Execs))]
	wantSum := e.Sum()
	req := server.ResultsRequest{Select: &server.Selection{Execution: e.Name}}
	return op{kind: opStreamExec, key: e.Name, do: func(ctx context.Context, cl *client.Client) error {
		rows, sum, foreign := 0, 0.0, 0
		summary, err := cl.ResultsStream(ctx, req, func(r server.ResultRow) {
			rows++
			sum += r.Value
			if r.Execution != e.Name {
				foreign++
			}
		})
		if err != nil {
			return err
		}
		if rows != corpus.Full.Results() || summary.Rows != rows || foreign != 0 || math.Abs(sum-wantSum) > 1e-9*wantSum {
			return fmt.Errorf("stream of %s: %d rows (summary %d, %d foreign) summing to %v, oracle says %d rows summing to %v",
				e.Name, rows, summary.Rows, foreign, sum, corpus.Full.Results(), wantSum)
		}
		return nil
	}}
}

func (g *opGen) compareOp() op {
	i := g.rng.Intn(len(g.c.Execs))
	j := (i + 1 + g.rng.Intn(len(g.c.Execs)-1)) % len(g.c.Execs)
	a, b := g.c.Execs[i], g.c.Execs[j]
	// Results align on (function, metric); each pair holds the mean over
	// the processes.
	wantPairs := corpus.Full.Funcs * corpus.Full.Metrics
	wantA := a.Sum() / float64(corpus.Full.Procs)
	return op{kind: opCompare, key: a.Name + " vs " + b.Name, do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Compare(ctx, a.Name, b.Name, client.CompareOptions{})
		if err != nil {
			return err
		}
		sumA := 0.0
		for _, p := range resp.Pairs {
			sumA += p.A
		}
		s := resp.Summary
		if s.Paired != wantPairs || s.OnlyA != 0 || s.OnlyB != 0 || math.Abs(sumA-wantA) > 1e-9*wantA {
			return fmt.Errorf("compare %s %s: %+v with side A summing to %v, oracle says %d pairs summing to %v", a.Name, b.Name, s, sumA, wantPairs, wantA)
		}
		return nil
	}}
}

func (g *opGen) pageBigOp() op {
	e := g.rng.Intn(len(g.c.Execs))
	const limit = 2000
	req := server.ResultsRequest{
		Families:   specs([]corpus.Family{g.c.FamExec(e)}),
		Limit:      limit,
		AddColumns: []string{"execution/process", "build/module/function"},
	}
	return op{kind: opPageBig, key: req.Families[0], do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Results(ctx, req)
		if err != nil {
			return err
		}
		if resp.Total != corpus.Full.Results() || len(resp.Rows) != limit || len(resp.Columns) != 7 {
			return fmt.Errorf("page_big %v: total %d, %d rows, %d columns; oracle says %d, %d, 7", req.Families, resp.Total, len(resp.Rows), len(resp.Columns), corpus.Full.Results(), limit)
		}
		return nil
	}}
}

func (g *opGen) diagnoseOp() op {
	fast, slow := g.c.FamAttr("compiler", "-O2"), g.c.FamAttr("compiler", "-O0")
	nFast, nSlow := g.c.Count(fast)/corpus.Full.Results(), g.c.Count(slow)/corpus.Full.Results()
	req := server.DiagnoseRequest{FamiliesA: []string{fast.Spec}, FamiliesB: []string{slow.Spec}}
	return op{kind: opDiagnose, key: fast.Spec + " vs " + slow.Spec, do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Diagnose(ctx, req)
		if err != nil {
			return err
		}
		found := false
		for _, ex := range resp.Explanations {
			found = found || (ex.Attr == "compiler" && ex.Effect == 1)
		}
		if len(resp.SideA) != nFast || len(resp.SideB) != nSlow || !found {
			return fmt.Errorf("diagnose: sides %d/%d, compiler explanation found=%v; oracle says %d/%d and a perfect compiler split", len(resp.SideA), len(resp.SideB), found, nFast, nSlow)
		}
		return nil
	}}
}

// --- loads ---

func loadOp(kind, name string, doc []byte, wantResults int) op {
	return op{kind: kind, key: name, ptdfBytes: len(doc), results: wantResults, do: func(ctx context.Context, cl *client.Client) error {
		resp, err := cl.Load(ctx, bytes.NewReader(doc))
		if err != nil {
			return err
		}
		if resp.Stats.Results != wantResults || resp.Stats.Executions != 1 {
			return fmt.Errorf("load %s acknowledged %d results in %d executions, oracle says %d in 1", name, resp.Stats.Results, resp.Stats.Executions, wantResults)
		}
		return nil
	}}
}

func (g *opGen) loadDocOp() op {
	i := g.nextDoc
	g.nextDoc++
	return loadOp(opLoadDoc, g.c.Execs[i].Name, g.c.ExecDoc(i), corpus.Full.Results())
}

func (g *opGen) loadSmallOp() op {
	i := g.nextTiny
	g.nextTiny++
	return loadOp(opLoadSmall, corpus.SmallName(i), g.c.SmallDoc(i), corpus.Small.Results())
}
