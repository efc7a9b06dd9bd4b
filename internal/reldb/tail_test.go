package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests of the columnar tail: a hot table keeps
// its unflushed rows as an unwritten segment, and a transaction's rows for
// it stay private to the transaction until Commit appends them under one
// hold of the engine write lock.

// batchRows is the number of results one batch of commitBatch carries.
const batchRows = 512

// commitBatch builds the k'th batch in a transaction — batchRows results
// of execution 0, each linked to foci 2 and 1 (descending, and in the
// table once batch 0 is), and with each result a new focus of resource 0
// and a new resource under ancestor 0 — and commits it; with fail set the
// batch's last row is refused and the transaction is rolled back instead.
func commitBatch(eng *DB, k int, fail bool) error {
	tx := eng.begin()
	for i := 0; i < batchRows; i++ {
		rid, err := tx.Insert("performance_result", Row{Null(), Int(0), Int(int64(i % 13)), Int(1), Null(), Float(float64(i))})
		if err != nil {
			return err
		}
		for _, f := range []int64{2, 1} {
			if _, err := tx.Insert("result_has_focus", Row{Int(rid), Int(f)}); err != nil {
				return err
			}
		}
		fresh := int64(k*batchRows + i + 1)
		for _, ins := range []struct {
			table string
			row   Row
		}{
			{"focus", Row{Int(fresh), Str("primary"), Str(fmt.Sprintf("primary:0:%d", fresh))}},
			{"focus_has_resource", Row{Int(fresh), Int(0)}},
			{"resource_has_ancestor", Row{Int(fresh), Int(0)}},
			{"resource_has_descendant", Row{Int(0), Int(fresh)}},
		} {
			if _, err := tx.Insert(ins.table, ins.row); err != nil {
				return err
			}
		}
	}
	if fail {
		if _, err := tx.Insert("focus_has_resource", Row{Int(1), Str("not a resource")}); err == nil {
			return fmt.Errorf("batch %d: a string was accepted as a resource ID", k)
		}
		return tx.Rollback()
	}
	return tx.Commit()
}

// TestSegmentBatchHotRowsAppearTogether: while loaders commit batches —
// every third one rolled back after its last row — and the compactor seals
// and publishes tails, every count a reader observes, by Len, by block
// scan and by index scan, on each hot table, is that of whole committed
// batches, and a result that is visible has its focus links, and they
// their foci. At the end no hot table holds a row in its row set: the tail
// is the only way in.
func TestSegmentBatchHotRowsAppearTogether(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	for _, schema := range hotSchemas() {
		if err := fe.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
	}
	fe.SetSegmentFlushRows(3 * batchRows)
	const batches = 36
	var commit sync.Mutex // serializes batches, as the datastore's write lock does
	var next, committed atomic.Int64
	var loaders, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for {
				commit.Lock()
				k := int(next.Add(1)) - 1
				if k >= batches {
					commit.Unlock()
					return
				}
				if err := commitBatch(fe, k, k%3 == 2); err != nil {
					t.Error(err)
				} else if k%3 != 2 {
					committed.Add(1)
				}
				commit.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	// Rows per batch, and — where the table has one — an index scan that
	// visits the same number of its rows in every batch.
	type shape struct {
		rows  int
		index string
		key   int64
		per   int // rows the index scan finds per batch
	}
	shapes := map[string]shape{
		"performance_result":      {batchRows, "performance_result_exec", 0, batchRows},
		"result_has_focus":        {2 * batchRows, "rhf_focus", 1, batchRows},
		"focus_has_resource":      {batchRows, "fhr_resource", 0, batchRows},
		"focus":                   {rows: batchRows},
		"resource_has_ancestor":   {batchRows, "rha_ancestor", 0, batchRows},
		"resource_has_descendant": {rows: batchRows},
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var lastResult int64
				for table, sh := range shapes {
					tab, _ := fe.Table(table)
					if n := tab.Len(); n%sh.rows != 0 {
						t.Errorf("Len of %s = %d: not a number of whole %d-row batches", table, n, sh.rows)
					}
					scan, err := tab.Blocks(0, 1<<40)
					if err != nil {
						t.Error(err)
						return
					}
					n := 0
					scan.Each(func(b *ColumnBlock) error {
						n += b.Len()
						if ids := b.IDs(); table == "performance_result" && ids.Len() > 0 {
							lastResult = ids.At(ids.Len() - 1)
						}
						return nil
					})
					if n%sh.rows != 0 {
						t.Errorf("block scan of %s saw %d rows: not a number of whole %d-row batches", table, n, sh.rows)
					}
					if sh.index == "" {
						continue
					}
					n = 0
					if err := tab.IndexScanInt(sh.index, []Value{Int(sh.key)}, 0, func(int64, int64) bool { n++; return true }); err != nil {
						t.Error(err)
					}
					if n%sh.per != 0 {
						t.Errorf("index scan of %s saw %d rows: not a number of whole batches (%d each)", table, n, sh.per)
					}
				}
				if lastResult > 0 {
					links, _ := fe.Table("result_has_focus")
					var foci []int64
					links.PKScan([]Value{Int(lastResult)}, func(_ int64, link Row) bool {
						foci = append(foci, link[1].Int64())
						return true
					})
					if len(foci) != 2 {
						t.Errorf("result %d is visible with %d of its 2 focus links", lastResult, len(foci))
					}
					focus, _ := fe.Table("focus")
					for _, f := range foci {
						if _, _, ok := focus.GetByPK(Int(f)); !ok {
							t.Errorf("result %d is visible and links to focus %d, which is not", lastResult, f)
						}
					}
				}
			}
		}()
	}
	loaders.Wait()
	close(done)
	readers.Wait()
	for table, sh := range shapes {
		tab, _ := fe.Table(table)
		if want := int(committed.Load()) * sh.rows; tab.Len() != want {
			t.Errorf("%s holds %d rows after %d committed batches, want %d", table, tab.Len(), committed.Load(), want)
		}
	}
	if st := fe.SegmentStats(); st.SegmentsWritten == 0 {
		t.Error("no segment was written while the batches committed")
	}
}

// storeFiles is the content of every file of the store — perftrack.wal,
// the tail logs and segment files — and the log bytes the engine says each
// hot table's unflushed rows own.
func storeFiles(t *testing.T, fe *DB, dir string) (map[string]string, map[string]int64) {
	t.Helper()
	fe.Stats() // flushes the logs
	logBytes := make(map[string]int64)
	for _, st := range fe.SegmentStats().Tables {
		logBytes[st.Table] = st.LogBytes
	}
	files := make(map[string]string)
	for rel := range listing(t, fe.fsys, dir) {
		data, err := fe.fsys.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		files[rel] = string(data)
	}
	return files, logBytes
}

// TestSegmentRolledBackBatchWritesNothing: a batch — a document's metric
// row, results, foci and closure links — whose last record is refused, by
// the schema when it is added or by a foreign key when the batch commits,
// leaves perftrack.wal, every tail log and every segment file byte for
// byte as they were, installs nothing, and leaves the same gap in the row
// IDs as it does in the model.
func TestSegmentRolledBackBatchWritesNothing(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	metric := &Schema{
		Name:       "metric",
		Columns:    []Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}},
		PrimaryKey: []string{"id"},
	}
	p.both("create metric", func(eng writer) error { return eng.CreateTable(metric) })
	p.fe.SetSegmentFlushRows(64)
	p.load(0, 100) // a segment and a tail each
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	p.load(100, 20)
	files, logBytes := storeFiles(t, p.fe, p.dir)

	for _, c := range []struct {
		name string
		last func(tx txWriter) error // the batch's last record, and the transaction's end
	}{
		{"refused when added", func(tx txWriter) error {
			if _, err := tx.Insert("result_has_focus", Row{Int(1), Str("not a focus")}); err == nil {
				t.Fatal("a string was accepted as a focus ID")
			}
			return tx.Rollback()
		}},
		{"refused at commit", func(tx txWriter) error {
			if _, err := tx.Insert("result_has_focus", Row{Int(1 << 30), Int(1)}); err != nil {
				t.Fatal(err)
			}
			if tx.Commit() == nil {
				t.Fatal("a link to a result nobody has was committed")
			}
			return tx.Rollback()
		}},
	} {
		p.both(c.name, func(eng writer) error {
			tx := eng.begin()
			if _, err := tx.Insert("metric", Row{Null(), Str("m")}); err != nil {
				return err
			}
			if err := loadResults(tx, 500, 40); err != nil {
				return err
			}
			return c.last(tx)
		})
		afterFiles, afterBytes := storeFiles(t, p.fe, p.dir)
		if !reflect.DeepEqual(afterFiles, files) || !reflect.DeepEqual(afterBytes, logBytes) {
			t.Fatalf("%s: the rolled-back batch changed the store's files", c.name)
		}
		p.check(c.name)
	}
	var ids [2]int64
	for i, eng := range []writer{p.fe, p.ref} {
		var err error
		if ids[i], err = eng.Insert("performance_result", resultRow(7)); err != nil {
			t.Fatal(err)
		}
	}
	if ids[0] != ids[1] || ids[0] != 120+2*40+1 {
		t.Fatalf("row ID after the rolled-back batches = %d, the model's %d, want both %d", ids[0], ids[1], 120+2*40+1)
	}
	p.check("after the gap")
}

// TestSegmentPublishKeepsTailObject: sealing a tail installs its narrowed
// copy — integers at their least widths, the permutations a reader built
// over the tail shared, the tail itself untouched — and publishing moves
// that same object into the segment list; the file the compactor writes
// from it is byte for byte the one buildSegment lays out for the same
// rows.
func TestSegmentPublishKeepsTailObject(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.seg.shutdown()
	p.fe.SetSegmentFlushRows(1 << 40)
	if err := commitResults(p.fe, 0, 300); err != nil {
		t.Fatal(err)
	}
	tab, _ := p.fe.Table("performance_result")
	tail := tab.tail
	if tail == nil || tail.rows != 300 || tail.file != "" || !tail.pkAsc {
		t.Fatalf("the committed results are not an unwritten, key-ordered tail: %+v", tail)
	}
	n := 0
	tab.IndexScanInt("performance_result_exec", []Value{Int(3)}, 0, func(int64, int64) bool { n++; return true })
	built := tail.perms["performance_result_exec"].covered()
	if n == 0 || len(built) != 300 {
		t.Fatalf("index scan saw %d rows and built a %d-entry permutation over the tail", n, len(built))
	}
	var ids []int64
	var rows []Row
	tab.Scan(func(id int64, row Row) bool {
		ids, rows = append(ids, id), append(rows, row)
		return true
	})
	want, err := buildSegment(tab, ids, rows)
	if err != nil {
		t.Fatal(err)
	}
	p.fe.mu.Lock()
	p.fe.seg.sealReadyLocked(1)
	sealed := tab.sealed
	p.fe.mu.Unlock()
	if sealed == nil || sealed == tail || sealed.rows != 300 || sealed.rowIDs.Width() != 2 || sealed.cols[1].ints.Width() != 1 {
		t.Fatalf("the seal did not install a narrowed copy of the tail: %+v", sealed)
	}
	if tail.rowIDs.Width() != 8 || !slices.Equal(Values(&tail.rowIDs), Values(&sealed.rowIDs)) {
		t.Fatal("the seal changed the tail it copied")
	}
	if after := sealed.perms["performance_result_exec"].covered(); len(after) != 300 || &after[0] != &built[0] {
		t.Fatal("the sealed copy dropped the permutation the tail had built")
	}
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if len(tab.segs) != 1 || tab.segs[0] != sealed || tab.sealed != nil || tab.tail == tail {
		t.Fatalf("the published segment is not the sealed block: segs %v, sealed %p then, %p now", tab.segs, sealed, tab.sealed)
	}
	if after := sealed.perms["performance_result_exec"].covered(); len(after) != 300 || &after[0] != &built[0] {
		t.Fatal("publication dropped the permutation the tail had built")
	}
	file, err := p.fsys.ReadFile(sealed.file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, encodeSegment(want)) || int64(len(file)) != sealed.sizeOn {
		t.Fatalf("the segment file (%d bytes, sizeOn %d) is not buildSegment's image of the same rows (%d bytes)", len(file), sealed.sizeOn, len(encodeSegment(want)))
	}
	// A tail whose rows do not lie in key order is written through its key
	// order: the file is again buildSegment's.
	links, _ := p.fe.Table("result_has_focus")
	if links.segs[0].pkAsc != true || links.segs[0].rows != 600 {
		t.Fatalf("result_has_focus segment: %d rows, key-ordered %v", links.segs[0].rows, links.segs[0].pkAsc)
	}
	ids, rows = nil, nil
	links.Scan(func(id int64, row Row) bool {
		ids, rows = append(ids, id), append(rows, row)
		return true
	})
	if want, err = buildSegment(links, ids, rows); err != nil {
		t.Fatal(err)
	}
	if file, err = p.fsys.ReadFile(links.segs[0].file); err != nil || !bytes.Equal(file, encodeSegment(want)) {
		t.Fatalf("the segment of descending links is not buildSegment's image of them (err %v)", err)
	}
	if err := commitResults(p.ref, 0, 300); err != nil {
		t.Fatal(err)
	}
	p.check("published")
}

// TestSegmentTailOutOfOrderKeys: links that arrive descending within each
// result — a row a commit, and as one transaction's block — are kept as they
// arrive and read through a permutation: key-ordered scans, point reads,
// the refusal of a duplicate (against the tail, and inside one block) and
// the segment written from the tail all agree with the model.
func TestSegmentTailOutOfOrderKeys(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.SetSegmentFlushRows(1 << 40)
	p.both("one-row transactions", func(eng writer) error { return loadResults(eng, 0, 200) })
	p.both("transaction", func(eng writer) error { return commitResults(eng, 200, 400) })
	links, _ := p.fe.Table("result_has_focus")
	if links.tail.rows != 1200 || links.tail.pkAsc {
		t.Fatalf("the links are not a 1200-row tail out of key order: %+v", links.tail)
	}
	p.check("tail")
	if err := p.both("duplicate of a tail row", func(eng writer) error {
		_, err := eng.Insert("result_has_focus", Row{Int(150), Int(51)})
		return err
	}); err == nil {
		t.Fatal("a duplicate link was accepted")
	}
	dup := func(eng writer, a, b Row) error {
		tx := eng.begin()
		for _, row := range []Row{a, b} {
			if _, err := tx.Insert("result_has_focus", row); err != nil {
				return errors.Join(err, tx.Rollback())
			}
		}
		if err := tx.Commit(); err != nil {
			return errors.Join(err, tx.Rollback())
		}
		return nil
	}
	if err := p.both("block with a duplicate of a tail row", func(eng writer) error {
		return dup(eng, Row{Int(600), Int(900)}, Row{Int(400), Int(134)})
	}); err == nil {
		t.Fatal("a block holding a duplicate of a published link was committed")
	}
	if err := p.both("block with a duplicate in itself", func(eng writer) error {
		return dup(eng, Row{Int(600), Int(900)}, Row{Int(600), Int(900)})
	}); err == nil {
		t.Fatal("a block holding the same link twice was committed")
	}
	p.check("after the refusals")
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, p.fe, "result_has_focus"); st.Segments != 1 || st.Rows != 1200 {
		t.Fatalf("result_has_focus after compaction = %+v, want one 1200-row segment", st)
	}
	p.check("compacted")
	p.reopen()
	p.check("reopened")
}

// TestSegmentTxFallbacks drives a transaction's private blocks down every
// path but the append to a columnar tail past every key, on the engine
// and in the model, which must agree afterwards: a block committed after
// a delete replaced blocks of its table, a block whose keys lie below the
// flushed maximum (a run that overlaps the segments), and one whose row
// IDs were reserved before later rows were committed (the tail holding
// those is not sealed while the transaction is open).
func TestSegmentTxFallbacks(t *testing.T) {
	for _, commit := range []bool{true, false} {
		p := newHotPair(t)
		p.fe.SetSegmentFlushRows(1 << 40)
		end := func(tx txWriter) error {
			if commit {
				return tx.Commit()
			}
			return tx.Rollback()
		}
		label := func(what string) string { return fmt.Sprintf("%s (commit %v)", what, commit) }
		p.load(0, 90)
		if err := p.fe.CompactSegments(); err != nil {
			t.Fatal(err)
		}
		p.load(90, 30)

		p.both("blocks replaced under a block", func(eng writer) error {
			tx := eng.begin()
			if err := loadResults(tx, 150, 20); err != nil {
				return err
			}
			if err := eng.Delete("focus_has_resource", 5); err != nil { // a flushed row
				return err
			}
			if err := eng.Delete("focus_has_resource", 70); err != nil { // a tail row
				return err
			}
			return end(tx)
		})
		p.check(label("blocks replaced under a block"))
		if err := p.fe.CompactSegments(); err != nil {
			t.Fatal(err)
		}

		p.both("keys below the flushed maximum", func(eng writer) error {
			tx := eng.begin()
			for _, focus := range []int64{3, 2} {
				if _, err := tx.Insert("focus_has_resource", Row{Int(focus), Int(500)}); err != nil {
					return err
				}
			}
			return end(tx)
		})
		p.check(label("keys below the flushed maximum"))

		var early txWriter
		p.both("row IDs reserved before later rows", func(eng writer) error {
			tx := eng.begin()
			if eng == writer(p.fe) {
				early = tx
			}
			for i := 0; i < 5; i++ {
				row := resultRow(i)
				row[0] = Int(int64(5000 + i)) // explicit keys, above everything
				if _, err := tx.Insert("performance_result", row); err != nil {
					return err
				}
			}
			if eng == writer(p.fe) {
				return nil // committed below, after later rows and a compaction
			}
			return end(tx)
		})
		// Later rows take later row IDs, and lower keys; the model has them
		// in the same order.
		for i := 0; i < 10; i++ {
			row := resultRow(i)
			row[0] = Int(int64(4000 + i))
			p.both("later rows", func(eng writer) error { _, err := eng.Insert("performance_result", row); return err })
		}
		if err := p.fe.CompactSegments(); err != nil {
			t.Fatal(err)
		}
		if st := hotStatus(t, p.fe, "performance_result"); st.PendingRows < 10 {
			t.Fatalf("performance_result = %+v: its tail was sealed under an open transaction's row IDs", st)
		}
		if err := end(early); err != nil {
			t.Fatal(err)
		}
		p.check(label("row IDs reserved before later rows"))
		p.reopen()
		p.check(label("reopened"))
		p.fe.Close()
	}
}

// TestSegmentConcurrentTransactions: transactions that build and commit
// their blocks at the same time — nothing serializes them, so their
// reserved row IDs interleave and a commit can find its IDs and keys
// below rows another one has had flushed — beside single-row inserts and
// the compactor lose nothing and duplicate nothing, and the store reopens
// to the same rows.
func TestSegmentConcurrentTransactions(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.SetSegmentFlushRows(256)
	const writers, rounds, perTx = 4, 12, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tx := p.fe.Begin()
				for i := 0; i < perTx; i++ {
					rid, err := tx.Insert("performance_result", resultRow(i))
					if err == nil {
						_, err = tx.Insert("result_has_focus", Row{Int(rid), Int(int64(w))})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := p.fe.Insert("performance_result", resultRow(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	count := func() (results, linked int) {
		tab, _ := p.fe.Table("performance_result")
		links, _ := p.fe.Table("result_has_focus")
		var ids []int64
		tab.Scan(func(id int64, row Row) bool {
			if n := len(ids); (n > 0 && id <= ids[n-1]) || row[0].Int64() != id {
				t.Errorf("result row %d (key %v) follows row %v", id, row[0], ids[max(n-1, 0):])
			}
			ids = append(ids, id)
			return true
		})
		for _, id := range ids { // not inside Scan: a visitor must not take the engine lock again
			links.PKScan([]Value{Int(id)}, func(int64, Row) bool { linked++; return true })
		}
		return len(ids), linked
	}
	results, linked := count()
	if results != writers*rounds*perTx+200 || linked != writers*rounds*perTx {
		t.Fatalf("%d results and %d links, want %d and %d", results, linked, writers*rounds*perTx+200, writers*rounds*perTx)
	}
	p.reopen()
	if r, l := count(); r != results || l != linked {
		t.Fatalf("%d results and %d links after reopen, want %d and %d", r, l, results, linked)
	}
}
