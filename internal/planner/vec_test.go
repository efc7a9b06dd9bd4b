package planner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// seedSegmentStore seeds a durable store in batches, compacting
// after each, so the view holds batches independent segments plus a
// tail of extra uncompacted rows.
func seedSegmentStore(t testing.TB, dir string, n, batches, tail int) (*datastore.Store, *reldb.DB) {
	t.Helper()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	t.Cleanup(func() { fe.Close() })
	st, err := datastore.Open(fe)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	recs := testRecords(n + tail)
	head := len(recs) - (n + tail) // dimension records
	b := st.NewBatch()
	for _, rec := range recs[:head] {
		b.Stage(rec)
	}
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatalf("commit dims: %v", err)
	}
	per := n / batches
	for i := 0; i < batches; i++ {
		lo, hi := head+i*per, head+(i+1)*per
		if i == batches-1 {
			hi = head + n
		}
		b := st.NewBatch()
		for _, rec := range recs[lo:hi] {
			b.Stage(rec)
		}
		if _, err := b.CommitCtx(context.Background()); err != nil {
			t.Fatalf("commit batch %d: %v", i, err)
		}
		if err := fe.CompactSegments(); err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
	}
	if tail > 0 {
		b := st.NewBatch()
		for _, rec := range recs[head+n:] {
			b.Stage(rec)
		}
		if _, err := b.CommitCtx(context.Background()); err != nil {
			t.Fatalf("commit tail: %v", err)
		}
	}
	return st, fe
}

// TestVectorizedMatchesNaive runs the full differential suite over a
// multi-segment store with a B-tree tail, at several worker counts: the
// vectorized kernels must stay byte-identical to naive execution.
func TestVectorizedMatchesNaive(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 360, 3, 40)
	naive := New(st)
	naive.Naive = true
	for _, workers := range []int{1, 2, 4} {
		planned := New(st)
		planned.Workers = workers
		for _, q := range differentialQueries {
			checkPlannedMatchesNaive(t, fmt.Sprintf("w=%d", workers), planned, naive, q)
		}
	}
}

// TestVectorizedAggregate pins that a grouped aggregate over segments
// actually takes the vectorized path and reports its fan-out.
func TestVectorizedAggregate(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 400, 4, 0)
	p := New(st)
	p.Workers = 4
	q := "SELECT metric, count(*), sum(value), min(value), max(value), avg(value) " +
		"FROM performance_result GROUP BY metric ORDER BY metric"
	res, plan, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plan.Strategy != StrategyZoneMap || plan.Profile.BlocksScanned == 0 {
		t.Fatalf("strategy=%q blocks=%d, want zone-map over segment blocks (plan: %s)",
			plan.Strategy, plan.Profile.BlocksScanned, plan.Text())
	}
	if plan.Workers < 2 {
		t.Fatalf("workers = %d, want parallel fan-out across segments", plan.Workers)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	naive := New(st)
	naive.Naive = true
	nres, _, err := naive.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if renderResult(res) != renderResult(nres) {
		t.Fatalf("vectorized aggregate diverges:\n%s\nvs\n%s", renderResult(res), renderResult(nres))
	}
}

// TestVectorizedRowScan pins the vectorized row-materialization path:
// filtered row scans over segments run through the kernels and stay
// byte-identical, including the selection kernels.
func TestVectorizedRowScan(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 400, 4, 24)
	p := New(st)
	q := "SELECT id, metric, value FROM performance_result WHERE metric = 'metric-2' AND value >= 8 ORDER BY id"
	res, plan, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plan.Strategy != StrategyZoneMap || plan.Profile.BlocksScanned == 0 {
		t.Fatalf("strategy=%q blocks=%d, want zone-map over segment blocks (plan: %s)",
			plan.Strategy, plan.Profile.BlocksScanned, plan.Text())
	}
	naive := New(st)
	naive.Naive = true
	nres, _, err := naive.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if renderResult(res) != renderResult(nres) {
		t.Fatalf("vectorized rows diverge:\n%s\nvs\n%s", renderResult(res), renderResult(nres))
	}
}

// TestOneExecutorDecisions pins the three decisions the executor makes
// from what it can observe, none of which is an alternate executor:
// family predicates arrive as a gathered ID list and run the kernels,
// DISTINCT aggregates take the row path, and a GROUP BY whose packed key
// space exceeds maxDenseGroups gets its ordinals from the key map — all
// equal to naive.
func TestOneExecutorDecisions(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 200, 2, 24)
	p := New(st)
	naive := New(st)
	naive.Naive = true
	run := func(q string) *Plan {
		t.Helper()
		res, plan, err := p.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		nres, _, err := naive.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s naive: %v", q, err)
		}
		if renderResult(res) != renderResult(nres) {
			t.Fatalf("%s diverges:\n%s\nvs\n%s", q, renderResult(res), renderResult(nres))
		}
		return plan
	}

	plan := run("SELECT metric, count(*), avg(value) FROM performance_result WHERE family = '" + fastAttrFamily + "' GROUP BY metric")
	if !plan.Aggregate || plan.Profile.KernelNanos <= 0 {
		t.Fatalf("family aggregate: aggregate=%v kernel=%dns, want the kernels over the gathered IDs (plan: %s)",
			plan.Aggregate, plan.Profile.KernelNanos, plan.Text())
	}

	plan = run("SELECT metric, count(DISTINCT value) FROM performance_result GROUP BY metric ORDER BY metric")
	if plan.Aggregate || plan.Materialized == 0 {
		t.Fatalf("DISTINCT aggregate pushed below materialization (plan: %s)", plan.Text())
	}

	defer func(n int) { maxDenseGroups = n }(maxDenseGroups)
	maxDenseGroups = 4 // execution x metric packs into 3*5 slots
	for _, q := range []string{
		"SELECT execution, metric, count(*), sum(value), min(id), max(value) FROM performance_result GROUP BY execution, metric",
		"SELECT execution, metric, avg(value) FROM performance_result WHERE value > 10 GROUP BY execution, metric ORDER BY metric, execution",
	} {
		plan = run(q)
		if !plan.Aggregate || plan.Materialized != 0 {
			t.Fatalf("%s: aggregate=%v materialized=%d, want pushed aggregation (plan: %s)",
				q, plan.Aggregate, plan.Materialized, plan.Text())
		}
	}
}

// TestKeyOutsidePackedSpace covers a block whose group key lies outside
// the capacities the sink was sized with (a dictionary entry committed
// after the sizing): the row lands in its own group, merged by key.
func TestKeyOutsidePackedSpace(t *testing.T) {
	spec := vecAggSpec{fn: "COUNT", star: true}
	newSink := func() *aggSink {
		s := &aggSink{specs: []vecAggSpec{spec}, keyCols: []int{2}, caps: []int64{3}, mult: []int64{1}, dense: 3}
		s.acc = newVecAccum(s.dense, s.specs)
		return s
	}
	fold := func(s *aggSink, ms []int64) {
		bv, err := resultBlockVecs(resultBlock(t, ms))
		if err != nil {
			t.Fatal(err)
		}
		s.bv, s.keys, s.packed = &bv, []*reldb.IntVec{bv.ms}, false
		s.fold(0, 0, len(ms), nil)
	}
	a, b := newSink(), newSink()
	fold(a, []int64{1, 7, 1, -2})
	fold(b, []int64{7, 2, 9})
	a.merge(b)
	got := map[int64]int64{}
	for g, rc := range a.acc.rowCount {
		if rc > 0 {
			got[a.key(int32(g))[0]] = rc
		}
	}
	want := map[int64]int64{1: 2, 7: 2, -2: 1, 2: 1, 9: 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

// resultBlock returns the segment a memory engine compacts rows of
// performance_result into, one per metric ID given, as the block source
// hands it out: its integer vectors at the widths their ranges need.
func resultBlock(t *testing.T, metrics []int64) *reldb.ColumnBlock {
	t.Helper()
	db := reldb.NewMem()
	t.Cleanup(func() { db.Close() })
	schema := &reldb.Schema{Name: "performance_result", PrimaryKey: []string{"id"}, Columns: []reldb.Column{
		{Name: "id", Type: reldb.KindInt}, {Name: "execution_id", Type: reldb.KindInt},
		{Name: "metric_id", Type: reldb.KindInt}, {Name: "performance_tool_id", Type: reldb.KindInt},
		{Name: "units_id", Type: reldb.KindInt}, {Name: "value", Type: reldb.KindFloat},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for _, m := range metrics {
		row := reldb.Row{reldb.Null(), reldb.Int(1), reldb.Int(m), reldb.Int(1), reldb.Int(1), reldb.Float(1)}
		if _, err := tx.Insert("performance_result", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("performance_result")
	scan, err := tab.Blocks(math.MinInt64, math.MaxInt64)
	if err != nil || len(scan.Segments) != 1 {
		t.Fatalf("block source: %v, %d segments, want 1", err, len(scan.Segments))
	}
	return scan.Segments[0]
}

// widthCases are metric columns whose ranges need each width.
var widthCases = []struct {
	width   int
	metrics []int64
}{
	{0, []int64{5, 5, 5, 5}},
	{1, []int64{100, 355, 100, 200, 355}}, // 255 above a base of 100
	{2, []int64{7, 65542, 300, 7}},
	{4, []int64{0, 1<<32 - 1, 5, 5}},
	{8, []int64{-1 << 40, 1 << 40, 0, -1 << 40}},
}

// TestEqKernelEveryWidth: an equality on a dimension column selects the
// rows a brute-force comparison does, at every width the column can be
// held at — for each value present, one in the range but absent, one
// below the base, one above the maximum, and the extremes of int64.
func TestEqKernelEveryWidth(t *testing.T) {
	for _, c := range widthCases {
		b := resultBlock(t, c.metrics)
		bv, err := resultBlockVecs(b)
		if err != nil || bv.ms.Width() != c.width {
			t.Fatalf("%v: metric column at width %d (%v), want %d", c.metrics, bv.ms.Width(), err, c.width)
		}
		all := make([]int32, b.Len())
		for i := range all {
			all[i] = int32(i)
		}
		wants := append(slices.Clone(c.metrics), c.metrics[0]+1, slices.Min(c.metrics)-1, slices.Max(c.metrics)+1, math.MinInt64, math.MaxInt64)
		for _, want := range wants {
			var brute []int32
			for i, m := range c.metrics {
				if m == want {
					brute = append(brute, int32(i))
				}
			}
			ks, none := bv.kernels(&resultFilter{dims: []vecDim{{col: 2, id: want}}})
			var filled, refined []int32
			switch {
			case none:
			case len(ks) == 0: // a constant column holding want
				filled, refined = all, all
			default:
				filled = ks[0].fill(nil, 0, b.Len())
				refined = ks[0].refine(slices.Clone(all))
			}
			if !slices.Equal(filled, brute) || !slices.Equal(refined, brute) {
				t.Errorf("width %d, metric = %d: fill %v, refine %v, want %v", c.width, want, filled, refined, brute)
			}
		}
	}
}

// TestGroupKeysEveryWidth: grouping by a dimension column counts the rows
// of each key a brute-force count does, over a whole block and over a
// selection, at every width the column can be held at — through the
// packed key space where the keys fit it (widths 0 to 2, one with a base
// above 0) and through the key map where they do not (4 and 8).
func TestGroupKeysEveryWidth(t *testing.T) {
	for _, c := range widthCases {
		b := resultBlock(t, c.metrics)
		bv, err := resultBlockVecs(b)
		if err != nil {
			t.Fatal(err)
		}
		s := &aggSink{specs: []vecAggSpec{{fn: "COUNT", star: true}}, keyCols: []int{2}, caps: []int64{1}, mult: []int64{1}}
		if hi := slices.Max(c.metrics); slices.Min(c.metrics) >= 0 && hi < 1<<20 {
			s.caps, s.dense = []int64{hi + 1}, int(hi+1)
		}
		s.acc = newVecAccum(s.dense, s.specs)
		s.open(b, &bv)
		if s.packed != (s.dense > 0) {
			t.Fatalf("width %d: packed %v with a dense space of %d", c.width, s.packed, s.dense)
		}
		var odd []int32
		brute := map[int64]int64{}
		for i, m := range c.metrics {
			brute[m]++
			if i%2 == 1 {
				odd = append(odd, int32(i))
				brute[m]++
			}
		}
		s.fold(0, 0, b.Len(), nil)
		s.fold(0, 0, b.Len(), odd)
		got := map[int64]int64{}
		for g, rc := range s.acc.rowCount {
			if rc > 0 {
				got[s.key(int32(g))[0]] += rc
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(brute) {
			t.Errorf("width %d: groups %v, want %v", c.width, got, brute)
		}
	}
}

// TestPartitionBlocks pins the contiguous partitioner invariants:
// every block covered exactly once, in order, by at most w parts.
func TestPartitionBlocks(t *testing.T) {
	for _, lens := range [][]int{
		{}, {10}, {5, 5, 5}, {100, 1, 1, 1}, {1, 1, 1, 100}, {7, 3, 9, 2, 8, 4, 6},
	} {
		for _, w := range []int{1, 2, 3, 7, 12} {
			parts := partitionBlocks(lens, w)
			if len(parts) > w && w >= 1 {
				t.Fatalf("lens=%v w=%d: %d parts", lens, w, len(parts))
			}
			next := 0
			for _, pr := range parts {
				if pr[0] != next || pr[1] < pr[0] {
					t.Fatalf("lens=%v w=%d: non-contiguous parts %v", lens, w, parts)
				}
				next = pr[1]
			}
			if next != len(lens) {
				t.Fatalf("lens=%v w=%d: parts %v do not cover all blocks", lens, w, parts)
			}
		}
	}
}

// TestVectorizedTailOnly pins correctness when every row still lives in
// the B-tree tail above the segment watermark (e.g. right after new
// writes re-enable the view).
func TestVectorizedTailOnly(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 64, 1, 64)
	p := New(st)
	naive := New(st)
	naive.Naive = true
	for _, q := range []string{
		"SELECT execution, count(*), avg(value) FROM performance_result GROUP BY execution",
		fmt.Sprintf("SELECT count(*) FROM performance_result WHERE id > %d", 64),
	} {
		res, _, err := p.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		nres, _, err := naive.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s naive: %v", q, err)
		}
		if renderResult(res) != renderResult(nres) {
			t.Fatalf("%s diverges:\n%s\nvs\n%s", q, renderResult(res), renderResult(nres))
		}
	}
}
