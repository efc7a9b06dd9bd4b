package experiments

// Segment-kernel scan benchmark behind `ptbench -benchjson`'s
// BENCH_scan.json artifact. The grouped aggregate below runs on a store
// in a directory through the column kernels at 1, 4, and all available
// workers; the w1/w4 pair documents parallel scaling. (The executor-vs-
// oracle comparison is BENCH_sql.json's sql-planned vs sql-naive.)

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"perftrack/internal/datastore"
	"perftrack/internal/planner"
	"perftrack/internal/reldb"
)

// seedSegmentedSynthStore loads the synthetic corpus in segments batch
// commits, compacting after each, so the result table lands in that many
// columnar segments instead of one (a single compaction pass flushes the
// whole tail into one segment file).
func seedSegmentedSynthStore(fe *reldb.DB, rows, segments int) (*datastore.Store, error) {
	recs := SynthResultRecords(rows)
	s, err := datastore.Open(fe)
	if err != nil {
		return nil, err
	}
	nDims := len(recs) - rows // application, execution, and resource records lead the slice
	results := recs[nDims:]
	chunk := (len(results) + segments - 1) / segments
	if chunk < 1 {
		chunk = 1
	}
	for start := 0; start < len(recs); {
		end := start + chunk
		if start < nDims {
			end = nDims // dimensions commit in one leading batch
		}
		if end > len(recs) {
			end = len(recs)
		}
		batch := s.NewBatch()
		for _, rec := range recs[start:end] {
			batch.Stage(rec)
		}
		if _, err := batch.Commit(); err != nil {
			return nil, err
		}
		if start >= nDims {
			if err := fe.CompactSegments(); err != nil {
				return nil, err
			}
		}
		start = end
	}
	return s, nil
}

// ScanBenchQuery exercises every aggregate kernel (count, sum, min, max,
// avg) over one dictionary group-by column.
const ScanBenchQuery = "SELECT metric, count(*), sum(value), min(value), max(value), avg(value) " +
	"FROM performance_result GROUP BY metric ORDER BY metric"

// scanBenchGroups matches SynthResultRecords' 16 metrics.
const scanBenchGroups = 16

// scanBenchSegments is how many columnar segments the corpus is split
// into. Parallel fan-out partitions work at segment granularity, so a
// single 100k-row segment would leave extra workers idle; 16 segments
// give a 4-worker scan four balanced parts.
const scanBenchSegments = 16

// scanBenchMode is one timed configuration of the planner.
type scanBenchMode struct {
	op      string
	workers int // 0 = GOMAXPROCS
}

// ScanBenchmark seeds the synthetic corpus on a store in a directory,
// compacts it into columnar segments, and times ScanBenchQuery in each
// mode, returning one BenchResult per mode. Every mode must actually read
// segment blocks (Profile.BlocksScanned > 0); a scan served from the
// tail instead is reported as an error rather than a bogus number.
func ScanBenchmark(dir string, rows, iters int) ([]BenchResult, error) {
	date := time.Now().UTC().Format("2006-01-02")
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		return nil, err
	}
	defer fe.Close()
	s, err := seedSegmentedSynthStore(fe, rows, scanBenchSegments)
	if err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = 1
	}
	// Same collector pacing as MaterializeBenchmark, and a settled heap
	// before the first mode so seeding garbage isn't collected mid-loop.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	runtime.GC()
	ctx := context.Background()
	modes := []scanBenchMode{
		{op: "scan-vectorized", workers: 0},
		{op: "scan-vectorized-w1", workers: 1},
		{op: "scan-vectorized-w4", workers: 4},
	}
	out := make([]BenchResult, 0, len(modes))
	for _, mode := range modes {
		p := planner.New(s)
		p.Workers = mode.workers
		// Warm-up keeps segment reads and dictionary maps out of the
		// timed loop, and verifies the mode runs the intended path.
		res, plan, err := p.Query(ctx, ScanBenchQuery)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", mode.op, err)
		}
		if len(res.Rows) != scanBenchGroups {
			return nil, fmt.Errorf("%s: %d groups, want %d", mode.op, len(res.Rows), scanBenchGroups)
		}
		if plan.Profile.BlocksScanned == 0 {
			return nil, fmt.Errorf("%s: query read no segment blocks (plan: %s)", mode.op, plan.Text())
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			res, _, err := p.Query(ctx, ScanBenchQuery)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode.op, err)
			}
			if len(res.Rows) != scanBenchGroups {
				return nil, fmt.Errorf("%s: %d groups, want %d", mode.op, len(res.Rows), scanBenchGroups)
			}
		}
		out = append(out, BenchResult{
			Op: mode.op, Engine: reldb.KindSegment, Rows: rows,
			NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(iters),
			Date:    date,
		})
	}
	return out, nil
}
