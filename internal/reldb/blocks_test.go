package reldb

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// sameColumns fails unless block b carries exactly the row IDs, column
// values, NULL bitmaps and zone maps of want (dictionary forms aside,
// which only segments build).
func sameColumns(t *testing.T, label string, b, want *ColumnBlock) {
	t.Helper()
	if got, wantIDs := Values(&b.rowIDs), Values(&want.rowIDs); b.Len() != want.Len() || !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("%s: row IDs differ: %d rows %v..., want %d rows %v...",
			label, b.Len(), head(got), want.Len(), head(wantIDs))
	}
	for ci := range want.cols {
		g, w := &b.cols[ci], &want.cols[ci]
		if !reflect.DeepEqual(Values(&g.ints), Values(&w.ints)) || !reflect.DeepEqual(g.floats, w.floats) ||
			!reflect.DeepEqual(g.nulls, w.nulls) {
			t.Fatalf("%s: column %d differs", label, ci)
		}
		if b.zones[ci] != want.zones[ci] {
			t.Fatalf("%s: column %d zone = %+v, want %+v", label, ci, b.zones[ci], want.zones[ci])
		}
	}
}

func head(ids []int64) []int64 { return ids[:min(len(ids), 4)] }

// TestBlockSourceTransposeMatchesSegment checks the transposer against
// buildSegment: for the same rows, blocks transposed from two runs whose
// keys interleave — a segment of the even keys and a tail of the odd ones,
// merged by range and gathered by ID list, across a 4096-row boundary —
// carry the columns, row IDs and zones a segment of those rows would.
func TestBlockSourceTransposeMatchesSegment(t *testing.T) {
	db := newTestMem(t)
	db.seg.shutdown() // the one pass below runs here
	if err := db.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	const n = blockRows + 1000
	ids, rows := make([]int64, n), make([]Row, n) // by key less 1
	insert := func(parity int) {
		tx := db.Begin()
		for k := parity; k < n; k += 2 {
			rows[k] = resultRow(k)
			rows[k][0] = Int(int64(k + 1))
			id, err := tx.Insert("performance_result", rows[k])
			if err != nil {
				t.Fatal(err)
			}
			ids[k] = id
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	insert(0)
	if err := db.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	insert(1)
	tab, _ := db.Table("performance_result")
	// want returns the segment buildSegment lays out for the rows whose
	// keys less 1 are keys.
	want := func(keys []int) *ColumnBlock {
		var wantIDs []int64
		var wantRows []Row
		for _, k := range keys {
			wantIDs, wantRows = append(wantIDs, ids[k]), append(wantRows, rows[k])
		}
		seg, err := buildSegment(tab, wantIDs, wantRows)
		if err != nil {
			t.Fatal(err)
		}
		return &seg.ColumnBlock
	}
	seq := func(lo, hi int) []int {
		var keys []int
		for k := lo; k <= hi; k++ {
			keys = append(keys, k)
		}
		return keys
	}

	// Range form: keys [11, n-4] merge into one full block and a remainder.
	scan, err := tab.Blocks(11, n-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Segments) != 0 {
		t.Fatal("a segment overlapping the tail was handed out whole")
	}
	next, blocks := 10, 0
	err = scan.Each(func(b *ColumnBlock) error {
		last := next + b.Len() - 1
		sameColumns(t, "range", b, want(seq(next, last)))
		next, blocks = last+1, blocks+1
		return nil
	})
	if err != nil || next != n-4 || blocks != 2 {
		t.Fatalf("range scan: err=%v, next key %d (want %d), %d blocks (want 2)", err, next+1, n-3, blocks)
	}

	// Gather form: an ascending ID list with holes, deleted rows and IDs
	// that never existed, again spanning two blocks.
	for _, k := range []int{2, 4097, 4099} {
		if err := db.Delete("performance_result", ids[k]); err != nil {
			t.Fatal(err)
		}
		ids[k] = 0
	}
	byID := make(map[int64]int, n)
	for k, id := range ids {
		if id != 0 {
			byID[id] = k
		}
	}
	var ask []int64
	var present []int
	for id := int64(1); id <= slices.Max(ids)+20; id++ {
		if id%10 == 0 {
			continue
		}
		ask = append(ask, id)
		if k, ok := byID[id]; ok {
			present = append(present, k)
		}
	}
	off := 0
	err = tab.Gather(ask, func(b *ColumnBlock) error {
		sameColumns(t, "gather", b, want(present[off:off+b.Len()]))
		off += b.Len()
		return nil
	})
	if err != nil || off != len(present) || off <= blockRows {
		t.Fatalf("gather: err=%v, %d rows, want %d (more than one block)", err, off, len(present))
	}
}

// linkPairs collects the (owner, member) links a block scan yields for
// owners in [lo, hi]; segment blocks arrive whole, so it filters.
func linkPairs(t *testing.T, tab *Table, lo, hi int64) [][2]int64 {
	t.Helper()
	scan, err := tab.Blocks(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]int64
	if err := scan.Each(func(b *ColumnBlock) error {
		owners, members := b.Ints(0), b.Ints(1)
		for i := range b.Len() {
			if o := owners.At(i); o >= lo && o <= hi {
				out = append(out, [2]int64{o, members.At(i)})
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBlockSourceSegmentsThenTail checks the composite-key case on the
// segment engine: a range scan yields the segment blocks, then only the
// unflushed rows — including links of the owner at the flushed boundary
// — each exactly once and in PK order, also once a delete has replaced
// the segment.
func TestBlockSourceSegmentsThenTail(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	if err := fe.CreateTable(fhrSchema()); err != nil {
		t.Fatal(err)
	}
	link := func(owner, member int64) {
		t.Helper()
		if _, err := fe.Insert("focus_has_resource", Row{Int(owner), Int(member)}); err != nil {
			t.Fatal(err)
		}
	}
	for owner := int64(1); owner <= 50; owner++ {
		link(owner, 1)
		link(owner, 2)
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	link(50, 3) // same owner as the flushed maximum: tail row at the boundary PK
	for owner := int64(51); owner <= 60; owner++ {
		link(owner, 1)
	}
	tab, _ := fe.Table("focus_has_resource")
	var want [][2]int64
	tab.Scan(func(_ int64, row Row) bool {
		if o := row[0].Int64(); o >= 45 && o <= 55 {
			want = append(want, [2]int64{o, row[1].Int64()})
		}
		return true
	})
	scan, err := tab.Blocks(45, 55)
	if err != nil || !scan.Segmented() || len(scan.Segments) != 1 {
		t.Fatalf("scan: err=%v segmented=%v segments=%d, want one live segment", err, scan.Segmented(), len(scan.Segments))
	}
	if got := linkPairs(t, tab, 45, 55); !reflect.DeepEqual(got, want) {
		t.Fatalf("segments+tail links = %v, want %v", got, want)
	}

	// Deleting a flushed row replaces the segment: the same range comes
	// from a segment block without the deleted link, then the tail.
	_, id, ok := tab.GetByPK(Int(46), Int(1))
	if !ok {
		t.Fatal("link (46,1) missing")
	}
	if err := fe.Delete("focus_has_resource", id); err != nil {
		t.Fatal(err)
	}
	scan, _ = tab.Blocks(45, 55)
	if len(scan.Segments) != 1 || scan.Segments[0].Len() != 99 {
		t.Fatalf("after the delete the scan has %d segment blocks, want the 99-row replacement", len(scan.Segments))
	}
	want = append(want[:2], want[3:]...) // (45,1) (45,2) | (46,1)
	if got := linkPairs(t, tab, 45, 55); !reflect.DeepEqual(got, want) {
		t.Fatalf("links after the delete = %v, want %v", got, want)
	}
}

// TestBlockSourceDuringCompaction scans a fixed ID prefix through the
// block source while a writer appends rows and the compactor publishes
// segments: whatever mix of segment and transposed blocks a scan sees,
// it must yield every prefix row exactly once, ascending (a segment
// block may carry later rows too; blocks are pruned, not trimmed). Under
// -race this is the check that a scan's reads of the row sets are
// synchronized with the seals and publications that replace them.
func TestBlockSourceDuringCompaction(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	const prefix = 3000
	insertResults(t, fe, prefix)
	tab, _ := fe.Table("performance_result")

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := prefix; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fe.Insert("performance_result", resultRow(i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i%500 == 0 {
				if err := fe.CompactSegments(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for iter := 0; iter < 40; iter++ {
				scan, err := tab.Blocks(1, prefix)
				if err != nil {
					t.Error(err)
					return
				}
				next := int64(1)
				err = scan.Each(func(b *ColumnBlock) error {
					vals := b.Float64s(5)
					for i, id := range Values(b.IDs()) {
						if id > prefix {
							break
						}
						if id != next || vals[i] != float64(id-1)*1.5 {
							t.Errorf("iter %d: got row %d value %v, want row %d", iter, id, vals[i], next)
						}
						next++
					}
					return nil
				})
				if err != nil || next != prefix+1 {
					t.Errorf("iter %d: err=%v, scanned up to %d, want %d", iter, err, next-1, prefix)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if scan, _ := tab.Blocks(1, math.MaxInt64); !scan.Segmented() {
		t.Error("no segment was ever published during the test")
	}
}

// TestNarrowSealUnderReaders: while a writer commits results and tails are
// sealed — installed as their narrowed copies — and published, readers of
// block-scan views (segments, then the tail), of Gather and of
// IndexScanInt each see every result committed before they began exactly
// once, with its values; and a view of a tail opened before its seal
// still reads it, wide, afterwards. Under -race this is the check that a
// seal never writes what a reader pinned.
func TestNarrowSealUnderReaders(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	schema := resultSchema()
	schema.Indexes = []IndexSpec{{Name: "by_exec", Columns: []string{"execution_id"}}}
	if err := fe.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	fe.SetSegmentFlushRows(300)
	tab, _ := fe.Table("performance_result")
	// Result k (row ID k+1) is resultRow(k).
	check := func(label string, id int64, row Row) {
		if want := resultRow(int(id - 1)); !rowsEqual(row[1:], want[1:]) || row[0].Int64() != id {
			t.Errorf("%s: row %d = %v, want %v", label, id, row, want)
		}
	}
	commit := func(from, n int) {
		tx := fe.Begin()
		for k := from; k < from+n; k++ {
			if _, err := tx.Insert("performance_result", resultRow(k)); err != nil {
				t.Error(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	}

	// A view opened over a tail, read after the seal and publication.
	commit(0, 250)
	scan, err := tab.Blocks(1, math.MaxInt64)
	if err != nil || scan.Segmented() {
		t.Fatalf("scan of the tail: %v, segmented %v", err, scan.Segmented())
	}
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	n := 0
	scan.Tail(func(b *ColumnBlock) error {
		if b.IDs().Width() != 8 {
			t.Errorf("the view pinned before the seal is at width %d", b.IDs().Width())
		}
		for i := range b.Len() {
			check("pinned view", b.IDs().At(i), b.row(i))
			n++
		}
		return nil
	})
	if n != 250 || len(tab.segs) != 1 || tab.segs[0].rowIDs.Width() == 8 {
		t.Fatalf("the pinned view read %d rows; the table has %d segments", n, len(tab.segs))
	}

	const total = 6000
	var committed atomic.Int64
	committed.Store(250)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for k := 250; k < total; k += 50 {
			commit(k, 50)
			committed.Store(int64(k + 50))
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for iter := 0; committed.Load() < total || iter < 3; iter++ {
				c := committed.Load()
				scan, err := tab.Blocks(1, math.MaxInt64)
				if err != nil {
					t.Error(err)
					return
				}
				next := int64(1)
				scan.Each(func(b *ColumnBlock) error {
					for i := range b.Len() {
						if id := b.IDs().At(i); id != next {
							t.Errorf("block scan: row %d after %d", id, next-1)
						}
						check("block scan", next, b.row(i))
						next++
					}
					return nil
				})
				if next <= c {
					t.Errorf("block scan saw %d rows, %d were committed before it", next-1, c)
				}
				var ids []int64
				for id := int64(1); id <= c; id += 7 {
					ids = append(ids, id)
				}
				got := 0
				tab.Gather(ids, func(b *ColumnBlock) error {
					for i := range b.Len() {
						if b.IDs().At(i) != ids[got] {
							t.Errorf("gather: row %d, want %d", b.IDs().At(i), ids[got])
						}
						check("gather", ids[got], b.row(i))
						got++
					}
					return nil
				})
				if got != len(ids) {
					t.Errorf("gather found %d of %d rows", got, len(ids))
				}
				exec := int64(iter % 7)
				want := exec + 1 // the first result whose execution_id is exec
				tab.IndexScanInt("by_exec", []Value{Int(exec)}, 0, func(id, key int64) bool {
					if id != want || key != id {
						t.Errorf("index scan of execution %d: row %d (key %d), want %d", exec, id, key, want)
					}
					want += 7
					return true
				})
				if want <= c {
					t.Errorf("index scan of execution %d stopped at %d, %d were committed before it", exec, want-7, c)
				}
			}
		}()
	}
	writer.Wait()
	readers.Wait()
	if st := hotStatus(t, fe, "performance_result"); st.Segments < 10 {
		t.Errorf("only %d segments were published under the readers", st.Segments)
	}
}
