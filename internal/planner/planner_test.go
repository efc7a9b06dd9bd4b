package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// testRecords builds a corpus with two executions, eight processors (one
// carrying a rare attribute value), four metrics, and n results.
func testRecords(n int) []ptdf.Record {
	recs := []ptdf.Record{
		ptdf.ApplicationRec{Name: "app"},
		ptdf.ExecutionRec{Name: "exec-a", App: "app"},
		ptdf.ExecutionRec{Name: "exec-b", App: "app"},
		ptdf.ResourceRec{Name: "/app", Type: "application"},
	}
	for p := 0; p < 8; p++ {
		name := core.ResourceName(fmt.Sprintf("/SG/SM/batch/n0/p%d", p))
		recs = append(recs, ptdf.ResourceRec{Name: name, Type: "grid/machine/partition/node/processor"})
		clock := "slow"
		if p == 0 {
			clock = "fast"
		}
		recs = append(recs, ptdf.ResourceAttributeRec{
			Resource: name, Attr: "clock", Value: clock, AttrType: "string",
		})
	}
	for i := 0; i < n; i++ {
		exec := "exec-a"
		if i%2 == 1 {
			exec = "exec-b"
		}
		recs = append(recs, ptdf.PerfResultRec{
			Exec: exec,
			Sets: []ptdf.ResourceSet{{
				Names: []core.ResourceName{"/app", core.ResourceName(fmt.Sprintf("/SG/SM/batch/n0/p%d", i%8))},
				Type:  core.FocusPrimary,
			}},
			Tool: "tool", Metric: fmt.Sprintf("metric-%d", i%4),
			Value: float64(i) * 0.5, Units: "seconds",
		})
	}
	return recs
}

// seedStore loads n results into a store over eng, which the test
// closes.
func seedStore(t testing.TB, eng *reldb.DB, n int) *datastore.Store {
	t.Helper()
	t.Cleanup(func() { eng.Close() })
	s, err := datastore.Open(eng)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	b := s.NewBatch()
	for _, rec := range testRecords(n) {
		b.Stage(rec)
	}
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return s
}

func renderResult(res *sqldb.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	for _, row := range res.Rows {
		b.WriteString("\n")
		b.WriteString(string(reldb.EncodeKey(nil, row...)))
	}
	return b.String()
}

// fastAttrFamily selects processor p0 — the only one with clock=fast —
// through an attribute predicate.
const fastAttrFamily = "type=grid/machine/partition/node/processor;attr=clock=fast"

var differentialQueries = []string{
	"SELECT id, execution, metric, value FROM performance_result WHERE metric = 'metric-1' AND value > 10 ORDER BY id LIMIT 20",
	"SELECT execution, count(*), avg(value) FROM performance_result GROUP BY execution",
	"SELECT metric, min(value), max(value) FROM performance_result WHERE execution = 'exec-a' GROUP BY metric ORDER BY metric",
	"SELECT count(*) FROM performance_result WHERE family = '" + fastAttrFamily + "'",
	"SELECT avg(value) FROM performance_result WHERE family = '" + fastAttrFamily + "' AND metric = 'metric-0'",
	"SELECT * FROM performance_result WHERE id <= 10",
	"SELECT count(*) FROM performance_result WHERE execution = 'no-such-exec'",
	"SELECT DISTINCT units FROM performance_result",
	"SELECT metric, avg(value) FROM performance_result WHERE value < 100 GROUP BY metric HAVING count(*) > 0 ORDER BY metric",
	"SELECT metric, count(DISTINCT execution) FROM performance_result GROUP BY metric ORDER BY metric",
	"SELECT value + 1 FROM performance_result WHERE 40 <= id AND id < 44",
	"SELECT name, application FROM execution ORDER BY name",
	"SELECT name, type FROM resource WHERE base_name = 'p1'",
	"SELECT name, execution FROM resource WHERE name = '/app'",
	"SELECT resource, name, value FROM attribute WHERE name = 'clock' ORDER BY resource",
	// Dimension equalities ride the block scan, alone and beside a value
	// comparison, through the aggregate and the row sinks.
	"SELECT count(*), sum(value) FROM performance_result WHERE metric = 'metric-2'",
	"SELECT id, value FROM performance_result WHERE execution = 'exec-b' AND value > 20 ORDER BY id",
	// Id bounds beyond the int64 range bound nothing.
	"SELECT count(*) FROM performance_result WHERE id <= 1e300",
	"SELECT count(*) FROM performance_result WHERE id <= 1e19",
	"SELECT count(*) FROM performance_result WHERE id >= -1e300",
	// Raw-executor fallbacks: physical columns and tables.
	"SELECT count(*) FROM metric",
	"SELECT execution_id, count(*) FROM performance_result GROUP BY execution_id ORDER BY execution_id",
}

// differentialStores seeds the same n-result corpus on every storage
// shape the block source serves: a store in memory and one in a
// directory that have compacted nothing (every row in the tail), a store
// with compacted segments plus an uncompacted tail, and one whose flushed
// performance_result row was deleted (a replacement segment) and whose
// closure and focus links hold keys below the flushed ones (overlapping
// runs, read by merging).
func differentialStores(t testing.TB, n int) []struct {
	label string
	st    *datastore.Store
} {
	t.Helper()
	uncompacted, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	t.Cleanup(func() { uncompacted.Close() })
	uncompacted.SetSegmentFlushRows(1 << 40)
	seg, _ := seedSegmentStore(t, t.TempDir(), n-n/4, 2, n/4)
	return []struct {
		label string
		st    *datastore.Store
	}{
		{"mem", seedStore(t, reldb.NewMem(), n)},
		{"durable-uncompacted", seedStore(t, uncompacted, n)},
		{"segment+tail", seg},
		{"segment-overlap-delete", overlapStore(t, n)},
	}
}

// overlapStore is seedSegmentStore's store after three writes below its
// flushed keys: a delete of a flushed result, a processor (with a result)
// under a flushed node, whose closure links overlap the flushed ones, and
// a second focus for a flushed result.
func overlapStore(t testing.TB, n int) *datastore.Store {
	t.Helper()
	st, fe := seedSegmentStore(t, t.TempDir(), n-n/4, 2, n/4)
	if err := fe.Delete("performance_result", 3); err != nil {
		t.Fatalf("delete flushed row: %v", err)
	}
	b := st.NewBatch()
	b.Stage(ptdf.ResourceRec{Name: "/SG/SM/batch/n0/p9", Type: "grid/machine/partition/node/processor"})
	b.Stage(ptdf.PerfResultRec{Exec: "exec-a", Sets: []ptdf.ResourceSet{{
		Names: []core.ResourceName{"/app", "/SG/SM/batch/n0/p9"}, Type: core.FocusPrimary,
	}}, Tool: "tool", Metric: "metric-1", Value: 99, Units: "seconds"})
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatalf("commit a processor under a flushed node: %v", err)
	}
	links, _ := st.Table("result_has_focus")
	focusOf := func(result int64) (f int64) {
		links.Lookup("", []reldb.Value{reldb.Int(result)}, func(b *reldb.ColumnBlock, i int) bool { f = b.Ints(1).At(i); return false })
		return f
	}
	if _, err := fe.Insert("result_has_focus", reldb.Row{reldb.Int(5), reldb.Int(focusOf(6))}); err != nil {
		t.Fatalf("link a flushed result to a second focus: %v", err)
	}
	overlapping := map[string]bool{"performance_result": false, "resource_has_descendant": true, "result_has_focus": true}
	for _, status := range fe.SegmentStats().Tables {
		want, checked := overlapping[status.Table]
		if !checked {
			continue
		}
		scan, err := st.Blocks(status.Table, math.MinInt64, math.MaxInt64)
		if err != nil || status.Segments == 0 {
			t.Fatalf("%s = %+v is not in segments (err %v)", status.Table, status, err)
		}
		if got := len(scan.Segments) < status.Segments; got != want {
			t.Fatalf("%s: %d of %d segments handed out whole: runs overlap = %v, want %v", status.Table, len(scan.Segments), status.Segments, got, want)
		}
	}
	return st
}

// checkPlannedMatchesNaive runs one query both ways on one store: the
// planned execution must fail exactly when naive does and otherwise
// return identical bytes.
func checkPlannedMatchesNaive(t testing.TB, label string, planned, naive *Planner, q string) {
	t.Helper()
	pres, _, perr := planned.Query(context.Background(), q)
	nres, _, nerr := naive.Query(context.Background(), q)
	if (perr != nil) != (nerr != nil) {
		t.Fatalf("%s %q: planned err = %v, naive err = %v", label, q, perr, nerr)
	}
	if perr != nil {
		return
	}
	if got, want := renderResult(pres), renderResult(nres); got != want {
		t.Fatalf("%s %q: planned and naive diverge:\n%s\nvs\n%s", label, q, got, want)
	}
}

// TestPlannedMatchesNaive is the differential oracle: every query must
// produce byte-identical results with the planner's pushdown on and
// off, on every storage shape.
func TestPlannedMatchesNaive(t *testing.T) {
	for _, s := range differentialStores(t, 400) {
		planned := New(s.st)
		naive := New(s.st)
		naive.Naive = true
		for _, q := range differentialQueries {
			checkPlannedMatchesNaive(t, s.label, planned, naive, q)
		}
	}
}

// TestDimensionEqualitiesRideTheBlockScan: an execution or metric
// equality on performance_result is the one block scan on every storage
// shape — zone-map once the store has segments, full-scan before — and
// answers what naive does, through the aggregate and the row sinks.
func TestDimensionEqualitiesRideTheBlockScan(t *testing.T) {
	for _, s := range differentialStores(t, 400) {
		want := StrategyFullScan
		if s.st.TableStatistics().TableStat("performance_result").SegmentRows > 0 {
			want = StrategyZoneMap
		}
		planned := New(s.st)
		naive := New(s.st)
		naive.Naive = true
		for _, q := range []string{
			"SELECT count(*), avg(value) FROM performance_result WHERE metric = 'metric-1'",
			"SELECT execution, sum(value) FROM performance_result WHERE execution = 'exec-a' GROUP BY execution",
			"SELECT id, metric FROM performance_result WHERE metric = 'metric-3' AND execution = 'exec-b' ORDER BY id DESC",
		} {
			if _, plan, err := planned.Query(context.Background(), q); err != nil || plan.Strategy != want {
				t.Fatalf("%s %q: plan %+v, err %v; want strategy %s", s.label, q, plan, err, want)
			}
			checkPlannedMatchesNaive(t, s.label, planned, naive, q)
		}
	}
}

// TestAttrIndexStrategy checks the acceptance criterion: a selective
// attribute predicate routes through the attribute-index path.
func TestAttrIndexStrategy(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 400)
	p := New(st)
	res, plan, err := p.Query(context.Background(),
		"SELECT count(*) FROM performance_result WHERE family = '"+fastAttrFamily+"'")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plan.Strategy != StrategyAttrIndex {
		t.Fatalf("strategy = %q, want %q (plan: %s)", plan.Strategy, StrategyAttrIndex, plan.Text())
	}
	// p0 owns every 8th result.
	if got := res.Rows[0][0].Int64(); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
	if plan.ActualRows != 50 {
		t.Fatalf("actual_rows = %d, want 50", plan.ActualRows)
	}
	if plan.EstRows < 1 || plan.EstRows >= 400 {
		t.Fatalf("est_rows = %d, want selective estimate in [1, 400)", plan.EstRows)
	}
}

// TestAggregatePushdown checks that grouped aggregation over dimension
// keys runs without materializing result rows.
func TestAggregatePushdown(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 400)
	p := New(st)
	res, plan, err := p.Query(context.Background(),
		"SELECT metric, avg(value) FROM performance_result GROUP BY metric ORDER BY metric")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !plan.Aggregate || plan.Materialized != 0 {
		t.Fatalf("aggregate=%v materialized=%d, want pushed aggregation with 0 rows built (plan: %s)",
			plan.Aggregate, plan.Materialized, plan.Text())
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}

	// A dimension equality rides the block scan: its kernel selects the
	// rows, and no index is read.
	q := "SELECT avg(value) FROM performance_result WHERE metric = 'metric-2' GROUP BY metric"
	res, plan, err = p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plan.Strategy != StrategyFullScan || !plan.Aggregate {
		t.Fatalf("strategy = %q, aggregate = %v; want the pushed block scan %q (plan: %s)",
			plan.Strategy, plan.Aggregate, StrategyFullScan, plan.Text())
	}
	if plan.ActualRows != 100 {
		t.Fatalf("actual_rows = %d, want 100", plan.ActualRows)
	}
	naive := New(st)
	naive.Naive = true
	nres, _, err := naive.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if got, want := renderResult(res), renderResult(nres); got != want {
		t.Fatalf("planned and naive diverge:\n%s\nvs\n%s", got, want)
	}
}

// TestZoneMapStrategy checks that on a durable engine with flushed
// columnar segments, unselective scans choose zone-map pruning and still
// match naive results.
func TestZoneMapStrategy(t *testing.T) {
	eng, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	st := seedStore(t, eng, 400)
	if err := eng.CompactSegments(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	p := New(st)
	q := "SELECT metric, sum(value) FROM performance_result WHERE value >= 0 GROUP BY metric ORDER BY metric"
	res, plan, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plan.Strategy != StrategyZoneMap {
		t.Fatalf("strategy = %q, want %q (plan: %s)", plan.Strategy, StrategyZoneMap, plan.Text())
	}
	naive := New(st)
	naive.Naive = true
	nres, _, err := naive.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	if renderResult(res) != renderResult(nres) {
		t.Fatalf("zone-map result diverges from naive:\n%s\nvs\n%s", renderResult(res), renderResult(nres))
	}
	tel := st.Telemetry()
	if tel.SegmentScans == 0 {
		t.Fatalf("segment scan not recorded in telemetry")
	}
}

// TestPlannerErrors checks error mapping: parse errors and pseudo-column
// misuse surface as bad-spec errors.
func TestPlannerErrors(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 16)
	p := New(st)
	for _, q := range []string{
		"SELEC nope",
		"SELECT family FROM performance_result",
		"SELECT * FROM performance_result WHERE family = 'type=' OR metric = 'm'",
		"CREATE TABLE x (id INTEGER PRIMARY KEY)",
	} {
		if _, _, err := p.Query(context.Background(), q); !errors.Is(err, datastore.ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", q, err)
		}
	}
}

// TestLargeAggregateNeverMaterializes is the 100k-row acceptance check:
// SELECT avg(value) ... GROUP BY metric over a 100k-row store builds no
// result rows and reads none through the materializer, on a store in
// memory and on a compacted one in a directory, whose 100k rows all come
// from segment blocks.
func TestLargeAggregateNeverMaterializes(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row corpus; skipped in -short")
	}
	const agg = "SELECT metric, avg(value) FROM performance_result GROUP BY metric ORDER BY metric"
	aggregateNeverMaterializes := func(t *testing.T, st *datastore.Store) (*Planner, *Plan) {
		t.Helper()
		before := st.Telemetry().ResultsRead
		p := New(st)
		res, plan, err := p.Query(context.Background(), agg)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		if !plan.Aggregate || plan.Materialized != 0 {
			t.Fatalf("materialized %d rows (aggregate=%v), want 0 (plan: %s)",
				plan.Materialized, plan.Aggregate, plan.Text())
		}
		if plan.ActualRows != 100_000 {
			t.Fatalf("actual_rows = %d, want 100000", plan.ActualRows)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("groups = %d, want 4", len(res.Rows))
		}
		if after := st.Telemetry().ResultsRead; after != before {
			t.Fatalf("materializer read %d results during pushed aggregation", after-before)
		}
		return p, plan
	}

	// The compacted directory store answers from segment blocks alone.
	eng, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("open engine: %v", err)
	}
	seg := seedStore(t, eng, 100_000)
	if err := eng.CompactSegments(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, plan := aggregateNeverMaterializes(t, seg); plan.Profile.SegmentRows != 100_000 {
		t.Fatalf("segment rows = %d, want 100000 (plan: %s)", plan.Profile.SegmentRows, plan.Text())
	}

	st := seedStore(t, reldb.NewMem(), 100_000)
	p, _ := aggregateNeverMaterializes(t, st)
	assertCancelledBeforeScan(t, p, "SELECT metric, avg(value) FROM performance_result GROUP BY metric")

	// The selective attribute predicate on the same store picks the
	// attribute-index path.
	_, plan, err := p.Query(context.Background(),
		"SELECT avg(value) FROM performance_result WHERE family = '"+fastAttrFamily+"'")
	if err != nil {
		t.Fatalf("attr query: %v", err)
	}
	if plan.Strategy != StrategyAttrIndex {
		t.Fatalf("strategy = %q, want %q (plan: %s)", plan.Strategy, StrategyAttrIndex, plan.Text())
	}
}

// assertCancelledBeforeScan runs q under an already-cancelled context:
// the scan loop checks the context once per block, so the query must
// fail with context.Canceled having scanned at most one block.
func assertCancelledBeforeScan(t *testing.T, p *Planner, q string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, plan, err := p.Query(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s under a cancelled context: err = %v, want context.Canceled", q, err)
	}
	if plan == nil || plan.Profile.RowsScanned > vecBatch {
		t.Fatalf("cancelled query still scanned the table (plan: %+v)", plan)
	}
}

// cancelAtCheck is a context cancelled at its nth Err call: mid-work,
// whatever the clock.
type cancelAtCheck struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAtCheck) Err() error {
	if c.left.Add(-1) > 0 {
		return nil
	}
	return context.Canceled
}

// TestRawAndNaiveScansStopWhenCancelled: a raw-sql join over
// performance_result, read block by block, a naive scan, which checks
// every 1024 rows, and dimension scans over a resource table of more than
// 2048 rows, which the executor checks every 1024 rows, return
// context.Canceled when cancelled at their second check instead of
// reading on.
func TestRawAndNaiveScansStopWhenCancelled(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 3000, 3, 100)
	wide := seedResources(t, 2100)
	for _, c := range []struct {
		st       *datastore.Store
		naive    bool
		strategy string
		q        string
	}{
		{st, false, StrategyRawSQL, "SELECT m.name, count(*) FROM performance_result pr JOIN metric m ON pr.metric_id = m.id GROUP BY m.name"},
		{st, true, StrategyFullScan, "SELECT id, value FROM performance_result"},
		{wide, false, StrategyFullScan, "SELECT name FROM resource"},
		{wide, false, StrategyFullScan, "SELECT name, type FROM resource ORDER BY name"},
	} {
		p := New(c.st)
		p.Naive = c.naive
		if _, plan, err := p.Query(context.Background(), c.q); err != nil || plan.Strategy != c.strategy {
			t.Fatalf("%s: plan %+v, err %v; want strategy %s", c.q, plan, err, c.strategy)
		}
		ctx := &cancelAtCheck{Context: context.Background()}
		ctx.left.Store(2)
		if res, _, err := p.Query(ctx, c.q); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-scan: result %t, err %v; want context.Canceled", c.q, res != nil, err)
		}
	}
}

// seedResources builds an in-memory store whose resource_item holds n
// processors besides their ancestors and /app.
func seedResources(t *testing.T, n int) *datastore.Store {
	t.Helper()
	st := seedStore(t, reldb.NewMem(), 0)
	b := st.NewBatch()
	for p := range n {
		b.Stage(ptdf.ResourceRec{
			Name: core.ResourceName(fmt.Sprintf("/SG/SM/batch/n1/p%d", p)),
			Type: "grid/machine/partition/node/processor",
		})
	}
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := st.TableStatistics().TableStat("resource_item").Rows; rows <= 2048 {
		t.Fatalf("resource_item holds %d rows, want more than 2048", rows)
	}
	return st
}

// TestLeftoverStatisticsTableIgnored opens a store directory that still
// holds the populated table_statistics table earlier versions rewrote at
// every commit: the table is carried along unread — the store opens,
// loads a document and answers a planned query from computed statistics.
func TestLeftoverStatisticsTableIgnored(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedStore(t, fe, 40)
	i64, text := reldb.KindInt, reldb.KindString
	if err := fe.CreateTable(&reldb.Schema{
		Name: "table_statistics",
		Columns: []reldb.Column{
			{Name: "id", Type: i64}, {Name: "kind", Type: text}, {Name: "name", Type: text},
			{Name: "row_count", Type: i64}, {Name: "distinct_count", Type: i64},
			{Name: "segment_rows", Type: i64}, {Name: "generation", Type: i64},
		},
		PrimaryKey: []string{"id"},
		Indexes:    []reldb.IndexSpec{{Name: "table_statistics_name", Columns: []string{"kind", "name"}}},
	}); err != nil {
		t.Fatal(err)
	}
	// A stale claim: had anything read it, the cost model would see an
	// empty performance_result.
	if _, err := fe.Insert("table_statistics", reldb.Row{
		reldb.Null(), reldb.Str("table"), reldb.Str("performance_result"),
		reldb.Int(0), reldb.Int(0), reldb.Int(0), reldb.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	st2, err := datastore.Open(fe2)
	if err != nil {
		t.Fatalf("open with a leftover table_statistics: %v", err)
	}
	if tab, ok := fe2.Table("table_statistics"); !ok || tab.Len() != 1 {
		t.Fatalf("leftover table not carried along untouched (present %v)", ok)
	}
	b := st2.NewBatch()
	b.Stage(ptdf.PerfResultRec{
		Exec: "exec-a",
		Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/app"}, Type: core.FocusPrimary}},
		Tool: "tool", Metric: "metric-0", Value: 1, Units: "seconds",
	})
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatalf("load: %v", err)
	}
	if tab, _ := fe2.Table("table_statistics"); tab.Len() != 1 {
		t.Errorf("a commit touched the leftover table: %d rows, want 1", tab.Len())
	}
	if got := st2.TableStatistics().TableStat("performance_result").Rows; got != 41 {
		t.Errorf("computed performance_result rows = %d, want 41", got)
	}
	res, plan, err := New(st2).Query(context.Background(), "SELECT count(*) FROM performance_result")
	if err != nil {
		t.Fatalf("planned query: %v", err)
	}
	if got := res.Rows[0][0].Int64(); got != 41 {
		t.Errorf("count(*) = %d, want 41 (plan: %s)", got, plan.Text())
	}
}
