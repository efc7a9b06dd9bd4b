package experiments

// SQL planner benchmark behind `ptbench -benchjson`'s BENCH_sql.json
// artifact: the acceptance aggregation (SELECT avg(value) ... GROUP BY
// metric) timed with the cost-based planner on ("sql-planned": pushed
// aggregation, no row materialization) and off ("sql-naive": full scan,
// every row built, aggregation above materialization). The ratio of the
// two rows is the planned-vs-naive speedup.

import (
	"context"
	"fmt"
	"time"

	"perftrack/internal/planner"
	"perftrack/internal/reldb"
)

// SQLBenchQuery is the aggregation the planner must answer without
// materializing result rows.
const SQLBenchQuery = "SELECT metric, avg(value) FROM performance_result GROUP BY metric ORDER BY metric"

// sqlBenchGroups is the expected group count: SynthResultRecords spreads
// results over 16 metrics.
const sqlBenchGroups = 16

// SQLBenchmark seeds the synthetic corpus on one engine kind and times
// SQLBenchQuery with the planner on and off, returning one BenchResult
// per mode ("sql-planned", then "sql-naive").
func SQLBenchmark(kind, dir string, rows, iters int) ([]BenchResult, error) {
	date := time.Now().UTC().Format("2006-01-02")
	e, err := reldb.Open(kind, dir)
	if err != nil {
		return nil, err
	}
	eng := e.DB()
	defer eng.Close()
	s, _, err := SeedSynthStore(eng, SynthResultRecords(rows))
	if err != nil {
		return nil, err
	}
	if err := eng.CompactSegments(); err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = 1
	}
	ctx := context.Background()
	out := make([]BenchResult, 0, 2)
	for _, mode := range []struct {
		op    string
		naive bool
	}{{"sql-planned", false}, {"sql-naive", true}} {
		p := planner.New(s)
		p.Naive = mode.naive
		// One warm-up run keeps dictionary maps and the page cache out of
		// the measured loop, matching MaterializeBenchmark.
		if _, _, err := p.Query(ctx, SQLBenchQuery); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", mode.op, err)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			res, _, err := p.Query(ctx, SQLBenchQuery)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mode.op, err)
			}
			if len(res.Rows) != sqlBenchGroups {
				return nil, fmt.Errorf("%s: %d groups, want %d", mode.op, len(res.Rows), sqlBenchGroups)
			}
		}
		out = append(out, BenchResult{
			Op: mode.op, Engine: kind, Rows: rows,
			NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(iters),
			Date:    date,
		})
	}
	return out, nil
}
