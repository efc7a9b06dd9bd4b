package planner

import (
	"context"
	"strings"
	"testing"

	"perftrack/internal/experiments"
	"perftrack/internal/reldb"
)

// TestExecProfileVectorizedAggregate checks the EXPLAIN ANALYZE actuals
// for the flagship path: a grouped aggregate over a multi-segment store
// with a B-tree tail, executed by the parallel kernels.
func TestExecProfileVectorizedAggregate(t *testing.T) {
	withWorkers(t, 4)
	st, _ := seedSegmentStore(t, t.TempDir(), 400, 4, 40)
	p := New(st)
	q := "SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric"
	res, plan, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	prof := plan.Profile
	if prof == nil {
		t.Fatal("plan carries no profile")
	}
	if !strings.Contains(plan.Text(), "vectorized: segment kernels") {
		t.Fatalf("plan does not report the segment kernels (plan: %s)", plan.Text())
	}
	if prof.SegmentRows != 400 {
		t.Errorf("SegmentRows = %d, want 400", prof.SegmentRows)
	}
	if prof.TailRows != 40 {
		t.Errorf("TailRows = %d, want 40", prof.TailRows)
	}
	if prof.RowsScanned != 440 {
		t.Errorf("RowsScanned = %d, want 440", prof.RowsScanned)
	}
	if prof.RowsReturned != int64(len(res.Rows)) {
		t.Errorf("RowsReturned = %d, want %d", prof.RowsReturned, len(res.Rows))
	}
	if prof.BlocksScanned == 0 {
		t.Error("BlocksScanned = 0, want > 0")
	}
	if len(prof.WorkerRows) == 0 {
		t.Error("WorkerRows empty, want per-worker partition sizes")
	}
	var partSum int64
	for _, n := range prof.WorkerRows {
		partSum += n
	}
	if partSum != prof.SegmentRows {
		t.Errorf("sum(WorkerRows) = %d, want SegmentRows %d", partSum, prof.SegmentRows)
	}
	if prof.ExecNanos <= 0 {
		t.Errorf("ExecNanos = %d, want > 0", prof.ExecNanos)
	}
	if prof.PlanNanos <= 0 {
		t.Errorf("PlanNanos = %d, want > 0", prof.PlanNanos)
	}
}

// TestExecProfileZoneMapPruning checks that a selective PK-range scan
// records the blocks the zone maps let it skip.
func TestExecProfileZoneMapPruning(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 400, 4, 0)
	p := New(st)
	_, plan, err := p.Query(context.Background(),
		"SELECT count(*) FROM performance_result WHERE id <= 10")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	prof := plan.Profile
	if prof == nil {
		t.Fatal("plan carries no profile")
	}
	if prof.BlocksPruned == 0 {
		t.Errorf("BlocksPruned = 0, want > 0 (plan: %s)", plan.Text())
	}
	if prof.SegmentRows == 0 || prof.SegmentRows >= 400 {
		t.Errorf("SegmentRows = %d, want a pruned subset of 400", prof.SegmentRows)
	}
}

// TestExecProfileKernelPruning: an execution equality on a store that
// holds each of 16 executions in a segment of its own reads one segment.
// The equality kernel rules the other 15 out unread (their execution
// column is constant), and the profile counts them as pruned, not
// scanned.
func TestExecProfileKernelPruning(t *testing.T) {
	eng, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	st, err := experiments.SeedExecutionSegments(eng, 16, 4096, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, plan, err := New(st).Query(context.Background(),
		"SELECT count(*), avg(value) FROM performance_result WHERE execution = 'e0007'")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	w := plan.WireAnalyze().Profile
	if plan.Strategy != StrategyZoneMap || plan.ActualRows != 4096 {
		t.Fatalf("strategy %s, actual rows %d; want %s, 4096 (plan: %s)", plan.Strategy, plan.ActualRows, StrategyZoneMap, plan.Text())
	}
	if w.BlocksPruned != 15 || w.BlocksScanned != 1 || w.RowsScanned != 4096 || w.SegmentRows != 4096 || w.TailRows != 0 {
		t.Errorf("profile %+v, want 15 blocks pruned, 1 scanned, 4096 segment rows scanned, 0 tail rows", *w)
	}
	if out := w.Text(); !strings.Contains(out, "scanned: 4096 rows (4096 segment rows in 1 blocks, 15 blocks pruned, 0 tail rows)") {
		t.Errorf("analyze output does not show the pruned blocks:\n%s", out)
	}
}

// TestExecProfileCacheHit checks that a cache hit returns the profile
// of the execution that filled the entry, flagged as such on the wire.
func TestExecProfileCacheHit(t *testing.T) {
	st := seedStore(t, reldb.NewMem(), 200)
	p := New(st)
	p.Cache = NewResultCache(1 << 20)
	q := "SELECT metric, count(*) FROM performance_result GROUP BY metric ORDER BY metric"
	// The second execution fills the entry: a first fill is not stored.
	var filled *Plan
	for range 2 {
		var err error
		if _, filled, err = p.Query(context.Background(), q); err != nil {
			t.Fatalf("filling execution: %v", err)
		}
	}
	_, second, err := p.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !second.CacheHit {
		t.Fatal("second execution missed the cache")
	}
	if second.Profile == nil {
		t.Fatal("cache hit dropped the profile")
	}
	if second.Profile.RowsScanned != filled.Profile.RowsScanned {
		t.Errorf("cached profile RowsScanned = %d, want %d",
			second.Profile.RowsScanned, filled.Profile.RowsScanned)
	}
	w := second.ProfileWire()
	if w == nil || !w.CacheHit {
		t.Errorf("ProfileWire = %+v, want CacheHit=true", w)
	}
}

// TestAnalyzeWireAndFormat checks the wire split: Wire() stays
// profile-free (plain explain output is byte-stable), WireAnalyze()
// attaches it, and Format renders the per-operator actuals.
func TestAnalyzeWireAndFormat(t *testing.T) {
	st, _ := seedSegmentStore(t, t.TempDir(), 400, 4, 0)
	p := New(st)
	_, plan, err := p.Query(context.Background(),
		"SELECT metric, avg(value) FROM performance_result GROUP BY metric ORDER BY metric")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if plain := plan.Wire(); plain.Profile != nil {
		t.Error("Wire() attached a profile; plain explain must stay byte-stable")
	}
	wa := plan.WireAnalyze()
	if wa.Profile == nil {
		t.Fatal("WireAnalyze() carries no profile")
	}
	out := Format(wa)
	for _, want := range []string{"profile:", "scanned:", "returned:", "workers:"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "segment rows") {
		t.Errorf("analyze output missing segment actuals:\n%s", out)
	}
}

// TestExecProfile100kSegmentAggregate is the acceptance check: analyze
// on a 100k-row segment-store grouped aggregate reports full-scan
// actuals that add up.
func TestExecProfile100kSegmentAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row corpus; skipped in -short")
	}
	st, _ := seedSegmentStore(t, t.TempDir(), 100_000, 4, 0)
	p := New(st)
	_, plan, err := p.Query(context.Background(),
		"SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	prof := plan.Profile
	if prof == nil {
		t.Fatal("plan carries no profile")
	}
	if prof.SegmentRows != 100_000 || prof.RowsScanned != 100_000 {
		t.Errorf("SegmentRows=%d RowsScanned=%d, want 100000 each", prof.SegmentRows, prof.RowsScanned)
	}
	w := plan.WireAnalyze().Profile
	if w.CardinalityError > 0.5 {
		t.Errorf("CardinalityError = %.2f on a full aggregate scan, want near 0", w.CardinalityError)
	}
	assertCancelledBeforeScan(t, p, "SELECT metric, count(*) FROM performance_result GROUP BY metric")
}

func TestCardinalityError(t *testing.T) {
	for _, tc := range []struct {
		est, actual int64
		want        float64
	}{
		{100, 100, 0},
		{50, 100, 0.5},
		{200, 100, 1},
		{5, 0, 5},
	} {
		if got := cardinalityError(tc.est, tc.actual); got != tc.want {
			t.Errorf("cardinalityError(%d, %d) = %g, want %g", tc.est, tc.actual, got, tc.want)
		}
	}
}
