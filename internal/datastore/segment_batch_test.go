package datastore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// fullShapedDoc returns the records of one execution shaped like the
// benchmark's doc_full: procs x funcs foci of three resources (a process,
// a function, a processor), each carrying one result per metric — one
// three-resource context per result.
func fullShapedDoc(exec string, procs, funcs, metrics int) []ptdf.Record {
	recs := []ptdf.Record{ptdf.ExecutionRec{Name: exec, App: "shaped"}}
	for p := 0; p < procs; p++ {
		recs = append(recs, ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/%s/p%d", exec, p)), Type: "execution/process", Exec: exec})
	}
	for p := 0; p < procs; p++ {
		for f := 0; f < funcs; f++ {
			sets := []ptdf.ResourceSet{{
				Names: []core.ResourceName{
					core.ResourceName(fmt.Sprintf("/%s/p%d", exec, p)),
					core.ResourceName(fmt.Sprintf("/bld/m/f%d", f)),
					core.ResourceName(fmt.Sprintf("/G/M/pt/n%d/c%d", p/8, p%8)),
				},
				Type: core.FocusPrimary,
			}}
			for m := 0; m < metrics; m++ {
				recs = append(recs, ptdf.PerfResultRec{Exec: exec, Sets: sets, Tool: "tool",
					Metric: fmt.Sprintf("metric %d", m), Units: "seconds", Value: float64(p*funcs+f) + float64(m)/8})
			}
		}
	}
	return recs
}

// shapedShared returns what every fullShapedDoc refers to: the
// application, the functions of the build and the machine's processors.
func shapedShared(procs, funcs int) []ptdf.Record {
	recs := []ptdf.Record{ptdf.ApplicationRec{Name: "shaped"}}
	for f := 0; f < funcs; f++ {
		recs = append(recs, ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/bld/m/f%d", f)), Type: "build/module/function"})
	}
	for p := 0; p < procs; p++ {
		recs = append(recs, ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/G/M/pt/n%d/c%d", p/8, p%8)), Type: "grid/machine/partition/node/processor"})
	}
	return recs
}

func stage(s *Store, recs []ptdf.Record) *Batch {
	b := s.NewBatch()
	for _, rec := range recs {
		b.Stage(rec)
	}
	return b
}

// TestSegmentCommitAllocsPerResult counts — it does not time — what the
// commit of a document shaped like doc_full allocates: at most 4 objects
// a result. It took 58 when every row of the result tables was cloned,
// key-encoded, threaded into B-trees and given an undo entry, 17 while
// the document's foci still went that way, and 8 while each result
// resolved its resource set to foci and the logs took a record a row.
func TestSegmentCommitAllocsPerResult(t *testing.T) {
	s, _ := newSegmentStore(t)
	const procs, funcs, metrics = 16, 8, 8
	if _, err := stage(s, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var batches []*Batch
	for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one call more
		batches = append(batches, stage(s, fullShapedDoc(fmt.Sprintf("e%d", i), procs, funcs, metrics)))
	}
	next := 0
	perCommit := testing.AllocsPerRun(runs, func() {
		if _, err := batches[next].CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.1f allocations per result", perCommit/(procs*funcs*metrics))
	if perResult := perCommit / (procs * funcs * metrics); perResult > 4 {
		t.Fatalf("a commit allocates %.1f objects per result, want at most 4", perResult)
	}
}

// TestSegmentResidentBytesPerRow: once documents shaped like doc_full are
// loaded and compacted, the segments of performance_result hold a row in
// at most 16 bytes of memory and those of result_has_focus in at most 8 —
// integers at the widths their blocks' ranges need — where holding each
// integer and row ID as an int64 took 56 and 24.
func TestSegmentResidentBytesPerRow(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(4096)
	const procs, funcs, metrics = 16, 8, 32
	if _, err := stage(s, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 6; d++ {
		if _, err := stage(s, fullShapedDoc(fmt.Sprintf("e%d", d), procs, funcs, metrics)).CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	st := fe.Stats()
	for _, name := range []string{"performance_result", "result_has_focus", "focus_has_resource", "focus", "resource_has_ancestor", "resource_has_descendant"} {
		if ts := st.PerTable[name]; ts.SegmentRows > 0 {
			t.Logf("%s: %.2f resident bytes a segment row", name, float64(ts.SegmentResidentBytes)/float64(ts.SegmentRows))
		}
	}
	for _, c := range []struct {
		table  string
		perRow float64
	}{{"performance_result", 16}, {"result_has_focus", 8}} {
		ts := st.PerTable[c.table]
		if ts.SegmentRows == 0 || float64(ts.SegmentResidentBytes)/float64(ts.SegmentRows) > c.perRow {
			t.Errorf("%s: %d segment rows resident in %d bytes, want at most %v a row", c.table, ts.SegmentRows, ts.SegmentResidentBytes, c.perRow)
		}
	}
	if st.SegmentResidentBytes == 0 || st.SegmentResidentBytes >= st.SegmentDataBytes {
		t.Errorf("segments resident in %d bytes, against %d in row form", st.SegmentResidentBytes, st.SegmentDataBytes)
	}
}

// TestEmptyFilterReadsRowIDsByBlock: the empty pr-filter — every result,
// which resolving an empty selection asks for — costs allocations that do
// not grow with the results it returns, and a cancelled context stops it.
func TestEmptyFilterReadsRowIDsByBlock(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // one block, however many results
	const procs, funcs, metrics = 8, 8, 16
	if _, err := stage(s, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	allocs := func(docs int) float64 {
		for d := 0; d < docs; d++ {
			if _, err := stage(s, fullShapedDoc(fmt.Sprintf("e%d-%d", docs, d), procs, funcs, metrics)).CommitCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
		if n := s.Stats().Results; err != nil || int64(len(ids)) != n || !slices.IsSorted(ids) {
			t.Fatalf("the empty filter: %d IDs (%v), want the store's %d ascending", len(ids), err, n)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(1), allocs(7); many != few {
		t.Errorf("the empty filter allocates %v times over %d results and %v over %d", few, procs*funcs*metrics, many, 8*procs*funcs*metrics)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ids, err := s.MatchingResultIDsCtx(ctx, core.PRFilter{}); !errors.Is(err, context.Canceled) {
		t.Errorf("the empty filter under a cancelled context: %d IDs, err %v", len(ids), err)
	}
}

// TestEmptyFilterScanCountsInTelemetry: the empty pr-filter's full scan
// of a compacted store is a segment scan like any other, so it shows in
// the store telemetry behind ptserved_store_segment_scans_total.
func TestEmptyFilterScanCountsInTelemetry(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	const procs, funcs, metrics = 4, 4, 4
	if _, err := stage(s, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := stage(s, fullShapedDoc("e0", procs, funcs, metrics)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	before := s.Telemetry()
	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil || len(ids) != procs*funcs*metrics {
		t.Fatalf("the empty filter: %d IDs (%v), want %d", len(ids), err, procs*funcs*metrics)
	}
	after := s.Telemetry()
	if after.SegmentScans != before.SegmentScans+1 || after.SegmentRowsScanned == before.SegmentRowsScanned {
		t.Errorf("the empty filter's scan: segment scans %d -> %d, rows scanned %d -> %d; want one more scan, of some rows",
			before.SegmentScans, after.SegmentScans, before.SegmentRowsScanned, after.SegmentRowsScanned)
	}
}

// TestSegmentBatchHotRowsAppearTogether is the store-level leg of the
// engine's test of that name: while documents load — every third one
// refused at its last record and rolled back — the counts a reader sees of
// results, of foci and of closure links are always those of whole loaded
// documents, a result that is visible has its foci, and afterwards none of
// the six hot tables holds a row outside its columns.
func TestSegmentBatchHotRowsAppearTogether(t *testing.T) {
	s, fe := newSegmentStore(t)
	const procs, funcs, metrics = 8, 8, 8
	const perDoc = procs * funcs * metrics
	if _, err := stage(s, shapedShared(procs, funcs)).CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A document adds a focus per (process, function) and, for each of its
	// processes, one closure link either way; the shared resources' links
	// were there before.
	tables := map[string]*reldb.Table{}
	for _, name := range []string{"performance_result", "result_has_focus", "focus", "resource_has_ancestor", "resource_has_descendant"} {
		tables[name], _ = fe.Table(name)
	}
	sharedLinks := tables["resource_has_ancestor"].Len()
	whole := func() (results int, err error) {
		results = tables["performance_result"].Len()
		foci := tables["focus"].Len()
		up, down := tables["resource_has_ancestor"].Len()-sharedLinks, tables["resource_has_descendant"].Len()-sharedLinks
		if results%perDoc != 0 || foci%(procs*funcs) != 0 || up%procs != 0 || down%procs != 0 {
			err = fmt.Errorf("%d results, %d foci, %d and %d closure links: not those of whole documents (%d, %d, %d and %d each)",
				results, foci, up, down, perDoc, procs*funcs, procs, procs)
		}
		return results, err
	}
	const docs = 30
	var next, loaded atomic.Int64
	var loaders, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= docs {
					return
				}
				var doc strings.Builder
				for _, rec := range fullShapedDoc(fmt.Sprintf("e%d", k), procs, funcs, metrics) {
					doc.WriteString(ptdf.FormatRecord(rec))
					doc.WriteByte('\n')
				}
				if k%3 == 2 {
					fmt.Fprintf(&doc, "PerfResult e%d /nobody/has/this(primary) tool \"metric 0\" 1.0 seconds\n", k)
				}
				_, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(doc.String()))
				switch {
				case k%3 == 2 && err == nil:
					t.Errorf("document %d: its last record names an unknown resource, yet it loaded", k)
				case k%3 != 2 && err != nil:
					t.Errorf("document %d: %v", k, err)
				case err == nil:
					loaded.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := whole(); err != nil {
					t.Error(err)
					return
				}
				var last int64
				if scan, err := tables["performance_result"].Blocks(0, math.MaxInt64); err == nil {
					scan.Each(func(b *reldb.ColumnBlock) error {
						if ids := b.IDs(); ids.Len() > 0 {
							last = ids.At(ids.Len() - 1)
						}
						return nil
					})
				}
				foci, _ := appendColumn(nil, tables["result_has_focus"], "", last, 1)
				for _, fid := range foci {
					if _, ok := tables["focus"].Get(fid); !ok {
						t.Errorf("result %d is visible and links to focus %d, which is not", last, fid)
						return
					}
				}
				if last > 0 && len(foci) != 1 {
					t.Errorf("result %d is visible with %d focus links, want 1", last, len(foci))
					return
				}
			}
		}()
	}
	loaders.Wait()
	close(done)
	readers.Wait()
	if got, err := whole(); err != nil || int64(got) != loaded.Load()*perDoc || loaded.Load() != docs-docs/3 {
		t.Fatalf("%d results (%v) after %d loaded documents, want %d (and %d documents)", got, err, loaded.Load(), loaded.Load()*perDoc, docs-docs/3)
	}
	for _, st := range fe.SegmentStats().Tables {
		if st.Rows+st.PendingRows == 0 {
			t.Errorf("%s after the loads = %+v, want every row in its columns", st.Table, st)
		}
	}
}
