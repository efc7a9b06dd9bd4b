package datastore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// newSegmentStore opens a store on a fresh durable engine with an
// aggressive flush threshold so the background compactor engages at
// test scale.
func newSegmentStore(t *testing.T) (*Store, *reldb.DB) {
	t.Helper()
	fe, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("Open durable engine: %v", err)
	}
	fe.SetSegmentFlushRows(256)
	t.Cleanup(func() { fe.Close() })
	s, err := Open(fe)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	return s, fe
}

// seedSegmentStudy registers the shared resources and executions used
// by the segment equivalence tests.
func seedSegmentStudy(t *testing.T, s *Store) {
	t.Helper()
	load(t, s,
		"Resource /irs application",
		"Resource /GM/MCR/batch/n0/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n1/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n2/p0 grid/machine/partition/node/processor",
		"Resource /GM/MCR/batch/n3/p0 grid/machine/partition/node/processor",
		"Execution m-mcr irs")
}

// addSegResults commits results from..to-1 of m-mcr, each deterministic
// with one or two contexts and a batch of its own, and returns their IDs.
func addSegResults(t testing.TB, s *Store, from, to int) []int64 {
	t.Helper()
	for i := from; i < to; i++ {
		sets := []ptdf.ResourceSet{{Names: []core.ResourceName{"/irs", core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i%4))}, Type: core.FocusPrimary}}
		if i%3 == 0 {
			other := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", (i+1)%4))
			sets = append(sets, ptdf.ResourceSet{Names: []core.ResourceName{other}, Type: core.FocusSender})
		}
		if err := commitOne(s, ptdf.PerfResultRec{
			Exec: "m-mcr", Metric: fmt.Sprintf("metric-%d", i%16), Value: float64(i) * 0.5,
			Units: "seconds", Tool: "test", Sets: sets,
		}); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
	}
	ids, err := s.ExecutionResultIDs("m-mcr")
	if err != nil {
		t.Fatal(err)
	}
	return ids[len(ids)-(to-from):]
}

// commitResults commits n single-focus m-mcr results in one batch and
// returns their IDs, ascending.
func commitResults(t testing.TB, s *Store, n int) []int64 {
	t.Helper()
	b := s.NewBatch()
	for i := range n {
		node := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i%4))
		b.Stage(ptdf.PerfResultRec{
			Exec: "m-mcr", Metric: fmt.Sprintf("metric-%d", i%16), Value: float64(i) * 0.5,
			Units: "seconds", Tool: "test",
			Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/irs", node}, Type: core.FocusPrimary}},
		})
	}
	if _, err := b.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ExecutionResultIDs("m-mcr")
	if err != nil {
		t.Fatal(err)
	}
	return ids[len(ids)-n:]
}

// TestMaterializeSegmentEquivalence compares the batch fetch on a
// durable store against the per-ID reference for every result, first
// with nothing compacted (every row transposed from the tail), then
// compacted — segment blocks plus the transposed, unflushed tail. Each
// time a wide set of the same results, read by Lookups, is compared
// too.
func TestMaterializeSegmentEquivalence(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	seedSegmentStudy(t, s)
	ids := addSegResults(t, s, 0, 2000)
	compare := func(wantSegmentScan bool) {
		t.Helper()
		before := s.Telemetry().SegmentScans
		got, err := s.MaterializeResultsCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if scanned := s.Telemetry().SegmentScans != before; scanned != wantSegmentScan {
			t.Fatalf("segment scan path taken = %v, want %v", scanned, wantSegmentScan)
		}
		want := perIDResults(t, s, ids)
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("result %d differs:\n got  %+v\n want %+v", i, got[i], want[i])
			}
		}
		if !sameAsPerID(t, s, "wide", wideIDs(t, ids, 16)) {
			t.FailNow()
		}
	}
	compare(false)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	// Rows inserted after the compaction stay in the unflushed tail.
	ids = append(ids, addSegResults(t, s, 2000, 2050)...)
	compare(true)
}

// TestMaterializeSegmentEquivalenceConcurrentLoad runs the comparison
// while a writer goroutine bulk-loads new results and compactions race
// the reads: rows already materialized are immutable under the
// append-only workload, so the batch fetch must agree with the per-ID
// reference on every round, whatever mix of segments and tail it sees.
func TestMaterializeSegmentEquivalenceConcurrentLoad(t *testing.T) {
	s, fe := newSegmentStore(t)
	seedSegmentStudy(t, s)
	ids := addSegResults(t, s, 0, 1600)
	wide := wideIDs(t, ids, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1600; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i%4))
			if err := commitOne(s, ptdf.PerfResultRec{
				Exec: "m-mcr", Metric: fmt.Sprintf("metric-%d", i%16), Value: float64(i) * 0.5,
				Units: "seconds", Tool: "test",
				Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/irs", node}, Type: core.FocusPrimary}},
			}); err != nil {
				t.Errorf("concurrent commit %d: %v", i, err)
				return
			}
		}
	}()
	for round := 0; round < 15; round++ {
		if round%5 == 2 {
			if err := fe.CompactSegments(); err != nil {
				t.Error(err)
				break
			}
		}
		if label := fmt.Sprintf("round %d", round); !sameAsPerID(t, s, label, ids) || !sameAsPerID(t, s, label+", wide", wide) {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// sameAsPerID materializes ids in one batch and reports whether it
// matches the per-ID reference, failing the test where it does not.
func sameAsPerID(t *testing.T, s *Store, label string, ids []int64) bool {
	t.Helper()
	seg, err := s.MaterializeResultsCtx(context.Background(), ids)
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return false
	}
	ref := perIDResults(t, s, ids)
	if reflect.DeepEqual(seg, ref) {
		return true
	}
	for i := range ref {
		if !reflect.DeepEqual(seg[i], ref[i]) {
			t.Errorf("%s: result %d differs:\n got  %+v\n want %+v", label, i, seg[i], ref[i])
			break
		}
	}
	return false
}

// TestKeyedReadFollowsDensity pins how a keyed read picks its access
// path: by how densely the IDs fill their range, not by what share of
// the table they are. The store is five compacted batches, each one
// segment of performance_result and one of result_has_focus, so a
// 4096-ID chunk is under a quarter of the table. One execution's
// contiguous run is a block pass over its own segments, the others
// pruned; 200 IDs spread across the table are point lookups that scan
// no segment row.
func TestKeyedReadFollowsDensity(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	seedSegmentStudy(t, s)
	var batches [][]int64
	for _, n := range []int{4096, 4096, 4096, 4096, 100} {
		batches = append(batches, commitResults(t, s, n))
		if err := fe.CompactSegments(); err != nil {
			t.Fatal(err)
		}
	}

	// Two default chunks: the first decodes the four foci, so what the
	// second scans is its own result rows and links.
	run := append(append([]int64{}, batches[0]...), batches[1]...)
	var tel []Telemetry
	var second []*core.PerformanceResult
	if err := s.MaterializeStreamCtx(context.Background(), run, MaterializeOptions{}, func(prs []*core.PerformanceResult) error {
		tel, second = append(tel, s.Telemetry()), prs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tel) != 2 {
		t.Fatalf("%d chunks, want 2", len(tel))
	}
	if !reflect.DeepEqual(second, perIDResults(t, s, batches[1])) {
		t.Fatal("the second chunk differs from the per-ID reference")
	}
	scans := tel[1].SegmentScans - tel[0].SegmentScans
	rows := tel[1].SegmentRowsScanned - tel[0].SegmentRowsScanned
	pruned := tel[1].ZoneMapPrunes - tel[0].ZoneMapPrunes
	if scans == 0 || rows > 2*4096 || pruned < 4 {
		t.Fatalf("a contiguous 4096-ID chunk: %d segment scans over %d rows, %d segments pruned; want a scan, at most %d rows, at least 4 pruned",
			scans, rows, pruned, 2*4096)
	}

	var all, spread []int64
	for _, b := range batches {
		all = append(all, b...)
	}
	for i := 0; i < len(all); i += len(all) / 200 {
		spread = append(spread, all[i])
	}
	spread = spread[:200]
	want := perIDResults(t, s, spread)
	metrics := s.Dict("metric")
	before := s.Telemetry().SegmentRowsScanned
	seen := 0
	if err := s.ResultColumns(context.Background(), spread, func(i int, metric, _ int64, value float64) error {
		if metrics.Name(metric) != want[i].Metric || value != want[i].Value {
			t.Errorf("result %d = (%s, %v), per-ID %+v", spread[i], metrics.Name(metric), value, want[i])
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(spread) {
		t.Fatalf("ResultColumns read %d of %d spread IDs", seen, len(spread))
	}
	if rows := s.Telemetry().SegmentRowsScanned - before; rows != 0 {
		t.Fatalf("200 IDs spread across the table scanned %d segment rows, want 0", rows)
	}
}
