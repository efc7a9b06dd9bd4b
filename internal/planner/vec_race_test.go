package planner

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
)

// TestVectorizedScanDuringCompaction runs parallel vectorized segment
// scans concurrently with batch commits and WAL compaction passes. The
// queries are pinned to an id prefix that existed before the writer
// started, so every execution — whatever mix of segments, fresh
// segments, and B-tree tail it observes across generations — must
// return the same bytes. Run under -race this also proves the scan
// fan-out never touches mutable engine state unsynchronized.
func TestVectorizedScanDuringCompaction(t *testing.T) {
	withWorkers(t, 2)
	const seedRows = 1200
	st, fe := seedSegmentStore(t, t.TempDir(), seedRows, 2, 0)

	queries := []string{
		fmt.Sprintf("SELECT metric, count(*), sum(value), min(value), max(value) FROM performance_result WHERE id <= %d GROUP BY metric ORDER BY metric", seedRows),
		fmt.Sprintf("SELECT execution, avg(value) FROM performance_result WHERE id <= %d GROUP BY execution", seedRows),
		fmt.Sprintf("SELECT id, value FROM performance_result WHERE id <= %d AND metric = 'metric-1' AND value >= 100 ORDER BY id", seedRows),
	}
	naive := New(st)
	naive.Naive = true
	want := make([]string, len(queries))
	for i, q := range queries {
		res, _, err := naive.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("baseline %s: %v", q, err)
		}
		want[i] = renderResult(res)
	}

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup

	// Writer: batch commits (generation bumps) interleaved with
	// compaction passes that rewrite the segment manifest.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			b := st.NewBatch()
			for j := 0; j < 40; j++ {
				b.Stage(ptdf.PerfResultRec{
					Exec: "exec-a",
					Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/app"}, Type: core.FocusPrimary}},
					Tool: "tool", Metric: fmt.Sprintf("metric-%d", j%4),
					Value: float64(round*40+j) * 0.25, Units: "seconds",
				})
			}
			if _, err := b.CommitCtx(context.Background()); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if round%2 == 1 {
				if err := fe.CompactSegments(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	// Readers: parallel vectorized scans across shifting generations.
	const readers = 4
	const iters = 30
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			p := New(st)
			for i := 0; i < iters; i++ {
				qi := (r + i) % len(queries)
				res, _, err := p.Query(context.Background(), queries[qi])
				if err != nil {
					t.Errorf("reader %d: %s: %v", r, queries[qi], err)
					return
				}
				if got := renderResult(res); got != want[qi] {
					t.Errorf("reader %d iter %d: %s: result drifted across generations:\n%s\nvs\n%s",
						r, i, queries[qi], got, want[qi])
					return
				}
			}
		}(r)
	}

	// Stop the writer once every reader has finished its iterations.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}
