package datastore

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"perftrack/internal/core"
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
	s.AddResource("/irs", "application", "")
	for n := 0; n < 4; n++ {
		name := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", n))
		if _, err := s.AddResource(name, "grid/machine/partition/node/processor", ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AddExecution("m-mcr", "irs"); err != nil {
		t.Fatal(err)
	}
}

// addSegResult stores one deterministic result with one or two contexts.
func addSegResult(t testing.TB, s *Store, i int) int64 {
	node := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i%4))
	ctxs := []core.Context{core.NewContext("/irs", node)}
	if i%3 == 0 {
		other := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", (i+1)%4))
		ctxs = append(ctxs, core.Context{Type: core.FocusSender, Resources: []core.ResourceName{other}})
	}
	id, err := s.AddPerfResult(&core.PerformanceResult{
		Execution: "m-mcr", Metric: fmt.Sprintf("metric-%d", i%16), Value: float64(i) * 0.5,
		Units: "seconds", Tool: "test", Contexts: ctxs,
	})
	if err != nil {
		t.Fatalf("AddPerfResult %d: %v", i, err)
	}
	return id
}

// TestMaterializeSegmentEquivalence compares the block-source fetch on
// a durable store against the per-ID reference for every result, first
// with nothing compacted (every row transposed from the B-tree), then
// compacted — segment blocks plus the transposed, unflushed tail.
func TestMaterializeSegmentEquivalence(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	seedSegmentStudy(t, s)
	ids := make([]int64, 0, 650)
	for i := 0; i < 600; i++ {
		ids = append(ids, addSegResult(t, s, i))
	}
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
	}
	compare(false)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	// Rows inserted after the compaction stay in the unflushed tail.
	for i := 600; i < 650; i++ {
		ids = append(ids, addSegResult(t, s, i))
	}
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
	ids := make([]int64, 0, 400)
	for i := 0; i < 400; i++ {
		ids = append(ids, addSegResult(t, s, i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 400; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			node := core.ResourceName(fmt.Sprintf("/GM/MCR/batch/n%d/p0", i%4))
			if _, err := s.AddPerfResult(&core.PerformanceResult{
				Execution: "m-mcr", Metric: fmt.Sprintf("metric-%d", i%16), Value: float64(i) * 0.5,
				Units: "seconds", Tool: "test",
				Contexts: []core.Context{core.NewContext("/irs", node)},
			}); err != nil {
				t.Errorf("concurrent AddPerfResult %d: %v", i, err)
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
		seg, err := s.MaterializeResultsCtx(context.Background(), ids)
		if err != nil {
			t.Errorf("round %d: %v", round, err)
			break
		}
		ref := perIDResults(t, s, ids)
		if !reflect.DeepEqual(seg, ref) {
			for i := range ref {
				if !reflect.DeepEqual(seg[i], ref[i]) {
					t.Errorf("round %d: result %d differs:\n got  %+v\n want %+v", round, i, seg[i], ref[i])
					break
				}
			}
			break
		}
	}
	close(stop)
	wg.Wait()
}
