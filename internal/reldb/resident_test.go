package reldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// hotSchemas returns the six hot tables, in segmentHotTables order, in
// the shape the PerfTrack schema gives them: their secondary indexes, the
// foreign key every result_has_focus insert probes performance_result
// with and the one a focus_has_resource insert probes focus with.
func hotSchemas() []*Schema {
	pr := resultSchema()
	pr.Indexes = []IndexSpec{
		{Name: "performance_result_exec", Columns: []string{"execution_id"}},
		{Name: "performance_result_metric", Columns: []string{"metric_id"}},
	}
	rhf := &Schema{
		Name: "result_has_focus",
		Columns: []Column{
			{Name: "result_id", Type: KindInt},
			{Name: "focus_id", Type: KindInt},
		},
		PrimaryKey:  []string{"result_id", "focus_id"},
		ForeignKeys: []ForeignKey{{Column: "result_id", RefTable: "performance_result", RefColumn: "id"}},
		Indexes:     []IndexSpec{{Name: "rhf_focus", Columns: []string{"focus_id"}}},
	}
	fhr := fhrSchema()
	fhr.ForeignKeys = []ForeignKey{{Column: "focus_id", RefTable: "focus", RefColumn: "id"}}
	fhr.Indexes = []IndexSpec{{Name: "fhr_resource", Columns: []string{"resource_id"}}}
	focus := &Schema{
		Name: "focus",
		Columns: []Column{
			{Name: "id", Type: KindInt},
			{Name: "focus_type", Type: KindString},
			{Name: "signature", Type: KindString},
		},
		PrimaryKey: []string{"id"},
	}
	closure := func(name, other, index string) *Schema {
		return &Schema{
			Name:       name,
			Columns:    []Column{{Name: "resource_id", Type: KindInt}, {Name: other, Type: KindInt}},
			PrimaryKey: []string{"resource_id", other},
			Indexes:    []IndexSpec{{Name: index, Columns: []string{other}}},
		}
	}
	return []*Schema{pr, rhf, fhr, focus,
		closure("resource_has_ancestor", "ancestor_id", "rha_ancestor"),
		closure("resource_has_descendant", "descendant_id", "rhd_descendant")}
}

// hotPair is an engine and the reference model it must agree with.
type hotPair struct {
	t    *testing.T
	fsys FS
	dir  string
	fe   *DB
	ref  *refModel
}

// newHotPair makes the six hot tables in an engine over a directory and
// in the model.
func newHotPair(t *testing.T) *hotPair { return newHotPairOn(t, osFS{}, t.TempDir()) }

func newHotPairOn(t *testing.T, fsys FS, dir string) *hotPair {
	p := &hotPair{t: t, fsys: fsys, dir: dir, ref: newRefModel()}
	p.fe = openTestEngineOn(t, fsys, dir)
	for _, schema := range hotSchemas() {
		p.both("create "+schema.Name, func(w writer) error { return w.CreateTable(schema) })
	}
	return p
}

// both applies op to the engine and to the model and fails unless they
// agree on whether it is refused.
func (p *hotPair) both(what string, op func(writer) error) error {
	p.t.Helper()
	ferr, merr := op(p.fe), op(p.ref)
	if (ferr == nil) != (merr == nil) {
		p.t.Fatalf("%s: the engine says %v, the model %v", what, ferr, merr)
	}
	return merr
}

// commitResults appends n results as loadResults does, through one
// transaction: the rows are private to it until it commits.
func commitResults(w writer, first, n int) error {
	tx := w.begin()
	if err := loadResults(tx, first, n); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	return tx.Commit()
}

// loadResults appends n results — each linked to two foci, each new
// focus to two resources, and with each new focus a new resource under a
// new ancestor, linked both ways — the way a document load does.
func loadResults(eng inserter, first, n int) error {
	for i := first; i < first+n; i++ {
		rid, err := eng.Insert("performance_result", resultRow(i))
		if err != nil {
			return err
		}
		focus := int64(i/3 + 1)
		for _, f := range []int64{focus + 1, focus} { // descending within a result
			if _, err := eng.Insert("result_has_focus", Row{Int(rid), Int(f)}); err != nil {
				return err
			}
		}
		if i%3 == 0 {
			r1, r2 := int64(i%11), int64(i%11+20)
			if _, err := eng.Insert("focus", Row{Int(focus), Str("primary"), Str(fmt.Sprintf("primary:%d:%d:%d", r1, r2, focus))}); err != nil {
				return err
			}
			for _, r := range []int64{r1, r2} {
				if _, err := eng.Insert("focus_has_resource", Row{Int(focus), Int(r)}); err != nil {
					return err
				}
			}
			anc, res := 2*focus, 2*focus+1
			if _, err := eng.Insert("resource_has_ancestor", Row{Int(res), Int(anc)}); err != nil {
				return err
			}
			if _, err := eng.Insert("resource_has_descendant", Row{Int(anc), Int(res)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// load appends n results to the engine and the model, each as one
// transaction.
func (p *hotPair) load(first, n int) {
	p.t.Helper()
	if err := p.both(fmt.Sprintf("load of results %d..%d", first, first+n-1), func(w writer) error {
		return commitResults(w, first, n)
	}); err != nil {
		p.t.Fatal(err)
	}
}

func (p *hotPair) check(label string) {
	p.t.Helper()
	for _, schema := range hotSchemas() {
		got, _ := p.fe.Table(schema.Name)
		sameReads(p.t, label+": "+schema.Name, got, p.ref.tables[schema.Name])
	}
}

func (p *hotPair) reopen() {
	p.t.Helper()
	if err := p.fe.Close(); err != nil {
		p.t.Fatal(err)
	}
	p.fe = openTestEngineOn(p.t, p.fsys, p.dir)
}

// randomID returns the row ID of a random row of the model's table.
func (p *hotPair) randomID(rng *rand.Rand, table string) int64 {
	rows := p.ref.tables[table].ordered()
	return rows[rng.Intn(len(rows))].id
}

// TestSegmentReadsMatchMem applies one seeded random history — ordered
// loads, replaced rows, deletes, a rolled-back transaction, an
// out-of-order insert, with compactions, checkpoints and reopens in
// between — to the engine and to the reference model, and after every
// step requires every read a Table offers to agree row for row and in
// order, and every refusal (duplicate key, dangling foreign key into a
// flushed range) to be shared.
func TestSegmentReadsMatchMem(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.SetSegmentFlushRows(64)
	rng := rand.New(rand.NewSource(19))
	next, segmented := 0, 0
	randomID := func(table string) int64 { return p.randomID(rng, table) }
	p.load(next, 90)
	next += 90
	for step := 0; step < 60; step++ {
		var label string
		switch op := rng.Intn(10); op {
		case 0, 1:
			label = "load"
			n := 20 + rng.Intn(60)
			p.load(next, n)
			next += n
		case 2:
			label = "replace"
			id, exec := randomID("performance_result"), int64(rng.Intn(7))
			row := p.ref.get("performance_result", id)
			row[1], row[5] = Int(exec), Float(-1)
			p.both(label, func(w writer) error {
				if err := w.Delete("performance_result", id); err != nil {
					return err
				}
				_, err := w.Insert("performance_result", row) // the same key, under a new row ID
				return err
			})
		case 3:
			label = "delete"
			table := []string{"performance_result", "result_has_focus", "focus_has_resource"}[rng.Intn(3)]
			id := randomID(table)
			p.both(label, func(w writer) error { return w.Delete(table, id) })
		case 4:
			label = "rolled-back transaction"
			p.both(label, func(w writer) error {
				tx := w.begin()
				if err := loadResults(tx, next, 5); err != nil {
					return err
				}
				return tx.Rollback()
			})
		case 5:
			label = "out-of-order insert"
			row := p.ref.get("focus_has_resource", randomID("focus_has_resource"))
			row[1] = Int(row[1].Int64() + 100) // same focus as an old row: below the flushed maximum
			p.both(label, func(w writer) error {
				_, err := w.Insert("focus_has_resource", row)
				return err
			})
		case 6:
			label = "refused inserts"
			dup := p.ref.get("performance_result", randomID("performance_result")) // a replaced row's key is not its row ID
			if err := p.both("duplicate key", func(w writer) error {
				row := resultRow(0)
				row[0] = dup[0]
				_, err := w.Insert("performance_result", row)
				return err
			}); err == nil {
				t.Fatalf("step %d: duplicate primary key %v accepted", step, dup[0])
			}
			victim := randomID("performance_result")
			p.both("delete", func(w writer) error { return w.Delete("performance_result", victim) })
			if err := p.both("dangling foreign key", func(w writer) error {
				_, err := w.Insert("result_has_focus", Row{Int(victim), Int(1 << 20)})
				return err
			}); err == nil {
				t.Fatalf("step %d: link to deleted result %d accepted", step, victim)
			}
		case 7:
			label = "compact"
			if err := p.fe.CompactSegments(); err != nil {
				t.Fatal(err)
			}
		case 8:
			label = "checkpoint"
			if err := p.fe.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 9:
			label = "reopen"
			// Recovery restarts row IDs after the highest surviving row,
			// the model after the highest ever assigned: make them the same
			// row.
			p.load(next, 3)
			next += 3
			if rng.Intn(2) == 0 {
				p.reopen()
			} else { // crash: the WAL reached the file (Stats flushes it), nothing was closed
				p.fe.Stats()
				abandon(p.fe)
				p.fe = openTestEngine(t, p.dir)
			}
			p.fe.SetSegmentFlushRows(64)
		}
		p.check(label)
		for _, st := range p.fe.SegmentStats().Tables {
			if st.Segments > 0 {
				segmented++
			}
		}
	}
	if segmented < 60 {
		t.Fatalf("only %d of 180 table states compared had segments: the history does not exercise them", segmented)
	}
}

// victims picks rows for one transaction to delete: of some of the hot
// tables, a row of a segment, of the sealed tail and of the active tail,
// where the table has them; placed notes which of those it found.
func (p *hotPair) victims(rng *rand.Rand, placed map[string]bool) map[string][]int64 {
	p.fe.mu.RLock()
	defer p.fe.mu.RUnlock()
	out := make(map[string][]int64)
	for _, name := range []string{"performance_result", "result_has_focus", "focus_has_resource", "focus", "resource_has_descendant"} {
		t := p.fe.tables[name]
		if rng.Intn(2) == 0 {
			continue
		}
		var seg *segment
		if len(t.segs) > 0 {
			seg = t.segs[rng.Intn(len(t.segs))]
		}
		for _, at := range []struct {
			where string
			s     *segment
		}{{"segment", seg}, {"sealed", t.sealed}, {"tail", t.tail}} {
			if at.s != nil && at.s.rows > 0 {
				out[name] = append(out[name], at.s.rowIDs.At(rng.Intn(at.s.rows)))
				placed[at.where] = true
			}
		}
	}
	return out
}

// crashCheckReads reopens what a power loss would leave of the pair's
// in-memory filesystem and requires it to read as the model does.
func (p *hotPair) crashCheckReads(label string) {
	p.t.Helper()
	fe, err := open(p.fsys.(*memFS).Crash(), KindMem, p.dir)
	if err != nil {
		p.t.Fatalf("%s: reopen after a crash: %v", label, err)
	}
	defer fe.Close()
	for _, schema := range hotSchemas() {
		got, _ := fe.Table(schema.Name)
		sameReads(p.t, label+", reopened after a crash: "+schema.Name, got, p.ref.tables[schema.Name])
	}
}

// TestTxDeletesMatchModel applies one seeded random history to the engine
// over an in-memory filesystem, in synchronous mode, and to the model:
// loads; transactions that delete rows of several tables at once, from
// segments, sealed tails and active tails; deletes refused or rolled back;
// inserts below a sealed key, which overlap the runs before them; and
// compaction passes, which write sealed tails and the replacements
// deletes made. After every step every read must agree with the model's,
// and every few steps so must a reopen of what a power loss would leave.
func TestTxDeletesMatchModel(t *testing.T) {
	p := newHotPairOn(t, newMemFS(), "db")
	defer func() { p.fe.Close() }()
	p.fe.seg.shutdown() // passes run when the history says: sealed tails wait for them
	p.fe.SetSync(true)
	p.fe.SetSegmentFlushRows(64)
	rng := rand.New(rand.NewSource(28))
	next, placed := 150, map[string]bool{}
	p.load(0, next)
	for step := 0; step < 80; step++ {
		var label string
		switch rng.Intn(6) {
		case 0:
			label = "load"
			n := 10 + rng.Intn(50)
			p.load(next, n)
			next += n
		case 1, 2:
			label = "transaction of deletes"
			victims := p.victims(rng, placed)
			p.both(label, func(w writer) error {
				tx := w.begin()
				for table, ids := range victims {
					for _, id := range ids {
						if err := tx.Delete(table, id); err != nil {
							return err
						}
					}
				}
				return tx.Commit()
			})
		case 3:
			label = "inserts below a sealed key"
			link := p.ref.get("focus_has_resource", p.randomID(rng, "focus_has_resource"))
			link[1] = Int(1000 + int64(step))
			closure := p.ref.get("resource_has_descendant", p.randomID(rng, "resource_has_descendant"))
			closure[1] = Int(1<<20 + int64(step))
			p.both(label, func(w writer) error {
				tx := w.begin()
				if _, err := tx.Insert("focus_has_resource", link); err != nil {
					return err
				}
				if _, err := tx.Insert("resource_has_descendant", closure); err != nil {
					return err
				}
				return tx.Commit()
			})
		case 4:
			label = "pass"
			p.fe.seg.compactMu.Lock()
			err := p.fe.seg.drain(false)
			p.fe.seg.compactMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		case 5:
			label = "refused and rolled-back deletes"
			gone := p.randomID(rng, "performance_result")
			if err := p.both("delete of a row twice over", func(w writer) error {
				tx := w.begin()
				if err := tx.Delete("performance_result", gone); err != nil {
					return err
				}
				if err := tx.Delete("performance_result", gone); err != nil {
					return err
				}
				return tx.Commit()
			}); err != nil {
				t.Fatal(err)
			}
			if err := p.both("delete of a deleted row", func(w writer) error { return w.Delete("performance_result", gone) }); err == nil {
				t.Fatalf("step %d: a second delete of row %d was accepted", step, gone)
			}
			kept := p.randomID(rng, "result_has_focus")
			p.both("rolled-back delete", func(w writer) error {
				tx := w.begin()
				if err := tx.Delete("result_has_focus", kept); err != nil {
					return err
				}
				return tx.Rollback()
			})
		}
		p.check(label)
		if step%8 == 7 {
			p.crashCheckReads(fmt.Sprintf("step %d (%s)", step, label))
		}
	}
	for _, where := range []string{"segment", "sealed", "tail"} {
		if !placed[where] {
			t.Errorf("no transaction deleted a row of a %s", where)
		}
	}
}

// TestCompactorKeepsUpUnderBackToBackCommits: with two writers committing
// threshold-sized batches back to back (serialized, as the datastore's
// write lock serializes commits, so a batch is nearly always open) the
// committer hands the compactor every batch boundary: segments are
// written while the writers run and the tail stays bounded.
func TestCompactorKeepsUpUnderBackToBackCommits(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	for _, schema := range hotSchemas() {
		if err := fe.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
	}
	const (
		threshold = 4096
		batch     = threshold // results per commit
		batches   = 24
	)
	fe.SetSegmentFlushRows(threshold)
	var commit sync.Mutex
	var writers sync.WaitGroup
	next, maxTail := 0, int64(0)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				commit.Lock()
				if next == batches*batch {
					commit.Unlock()
					return
				}
				if err := commitResults(fe, next, batch); err != nil {
					t.Error(err)
				}
				next += batch
				maxTail = max(maxTail, fe.SegmentStats().Tables[0].PendingRows) // performance_result
				commit.Unlock()
			}
		}()
	}
	writers.Wait()
	st := fe.SegmentStats()
	if limit := int64(2 * (threshold + batch)); maxTail > limit {
		t.Errorf("performance_result tail reached %d rows of %d loaded, want at most %d", maxTail, batches*batch, limit)
	}
	// Each commit leaves performance_result and result_has_focus at the threshold.
	if st.SegmentsWritten < batches {
		t.Errorf("%d segments written while %d batches committed: the compactor did not keep up", st.SegmentsWritten, batches)
	}
}

// heapAfterGC returns the live heap after two collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// flushedRowsAreNotResident fails unless the hot tables' row-store bytes
// cover their tails only (tailRows[i] rows of hotSchemas()[i]).
func flushedRowsAreNotResident(t *testing.T, fe *DB, tailRows []int64) {
	t.Helper()
	stats := fe.Stats()
	for i, schema := range hotSchemas() {
		ts := stats.PerTable[schema.Name]
		if ts.Rows-ts.SegmentRows != tailRows[i] {
			t.Fatalf("%s: %d of %d rows outside segments, want %d", schema.Name, ts.Rows-ts.SegmentRows, ts.Rows, tailRows[i])
		}
		// A row costs 8 bytes of header plus its cells in DataBytes and a
		// key per index in IndexBytes: far under 256 bytes for these shapes.
		if resident := ts.DataBytes + ts.IndexBytes; resident > 256*tailRows[i] {
			t.Fatalf("%s: %d row-store bytes resident for a %d-row tail (%d rows flushed)",
				schema.Name, resident, tailRows[i], ts.SegmentRows)
		}
	}
}

// TestSegmentFlushedRowsLeaveRowStore: once compacted, a row is resident
// in its segment only — the row-store byte counters cover the tail, and
// the live heap is under half of what the same rows take as rows, in the
// model's map. (The tail is columnar before the flush too, so the rows'
// share is measured on its own, not as half of both.)
func TestSegmentFlushedRowsLeaveRowStore(t *testing.T) {
	const rows = 30000
	base := heapAfterGC()
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.SetSegmentFlushRows(1 << 40) // hold everything in the tail first
	if err := commitResults(p.ref, 0, rows); err != nil {
		t.Fatal(err)
	}
	memShare := heapAfterGC() - base
	if err := commitResults(p.fe, 0, rows); err != nil {
		t.Fatal(err)
	}
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	flushedRowsAreNotResident(t, p.fe, []int64{0, 0, 0, 0, 0, 0})
	p.load(rows, 10)
	flushedRowsAreNotResident(t, p.fe, []int64{10, 20, 8, 4, 4, 4})
	// What remains after the flush is the rows' share plus the segments.
	after := heapAfterGC() - base
	if segShare := after - memShare; after < memShare || segShare > memShare/2 {
		t.Fatalf("live heap: %d KB with the rows alone, %d KB with the flushed engine beside them; that one holds %d KB, want under half of the rows'",
			memShare>>10, after>>10, (after-memShare)>>10)
	}
	runtime.KeepAlive(p)
}

// TestSegmentReopenAttachesWithoutReinserting: recovery attaches the
// manifest's segments instead of re-inserting their rows — the row store
// holds the tail only, row IDs continue past the watermark — and logs
// that end with deletes of flushed rows replay to the model's answer.
func TestSegmentReopenAttachesWithoutReinserting(t *testing.T) {
	const rows = 3000
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.load(0, rows)
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	p.load(rows, 10)
	p.reopen()
	flushedRowsAreNotResident(t, p.fe, []int64{10, 20, 8, 4, 4, 4})
	p.check("reopened")
	var ids [2]int64
	p.both("insert after reopen", func(w writer) (err error) {
		i := 0
		if w == writer(p.ref) {
			i = 1
		}
		ids[i], err = w.Insert("performance_result", resultRow(7))
		return err
	})
	if ids[0] != rows+11 || ids[0] != ids[1] {
		t.Fatalf("first row ID after reopen = %d (model %d), want %d", ids[0], ids[1], rows+11)
	}

	// Flushed rows change last; the crash leaves that in the WAL only.
	p.fe.SetSync(true)
	p.both("delete flushed result", func(w writer) error { return w.Delete("performance_result", 17) })
	p.both("delete flushed link", func(w writer) error { return w.Delete("focus_has_resource", 5) })
	abandon(p.fe)
	p.fe = openTestEngine(t, p.dir)
	p.check("replayed deletes of flushed rows")
	if st := hotStatus(t, p.fe, "result_has_focus"); st.Rows != 2*rows || st.PendingRows != 20 {
		t.Fatalf("untouched table after replay = %+v, want it still segment-resident", st)
	}
}

// TestSegmentIndexDDLCoversFlushedRows: an index created on a hot table
// after its rows were flushed (ensureSchema does this to an old store)
// serves them, a dropped one is gone everywhere, and a unique index —
// which blocks cannot enforce — is refused.
func TestSegmentIndexDDLCoversFlushedRows(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.load(0, 300)
	if err := p.fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	p.load(300, 20)
	p.both("create index", func(w writer) error {
		return w.CreateIndex("performance_result", IndexSpec{Name: "pr_tool_metric", Columns: []string{"tool_id", "metric_id"}})
	})
	p.both("drop index", func(w writer) error { return w.DropIndex("result_has_focus", "rhf_focus") })
	got, _ := p.fe.Table("performance_result")
	sameReads(t, "after CREATE INDEX", got, p.ref.tables["performance_result"])
	var n int
	if err := Visit(got, "pr_tool_metric", []Value{Int(1), Int(3)}, func(int64, Row) bool { n++; return true }); err != nil || n == 0 {
		t.Fatalf("two-column index scan over flushed rows: %d rows, err %v", n, err)
	}
	if st := hotStatus(t, p.fe, "performance_result"); st.Rows != 300 {
		t.Fatalf("status after CREATE INDEX = %+v, want the 300 flushed rows still in segments", st)
	}
	// A lookup wants a known index and a prefix no longer than its key.
	ignore := func(*ColumnBlock, int) bool { return true }
	if got.Lookup("pr_tool_metric", []Value{Int(1), Int(3), Int(5)}, ignore) == nil ||
		got.Lookup("", []Value{Int(1), Int(2)}, ignore) == nil ||
		got.Lookup("nope", []Value{Int(1)}, ignore) == nil {
		t.Fatal("Lookup accepted a prefix longer than the key or an unknown index")
	}
	got = nil
	rhf, _ := p.fe.Table("result_has_focus")
	if err := Visit(rhf, "rhf_focus", nil, func(int64, Row) bool { return true }); err == nil {
		t.Fatal("dropped index still scans")
	}
	p.reopen()
	if err := p.fe.CreateIndex("focus_has_resource", IndexSpec{Name: "fhr_pair", Columns: []string{"resource_id", "focus_id"}, Unique: true}); err == nil {
		t.Fatal("a unique index over columnar rows was accepted")
	}
	if st := hotStatus(t, p.fe, "focus_has_resource"); st.Segments == 0 || st.PendingRows != 14 {
		t.Fatalf("status after a refused unique index = %+v, want the rows where they were", st)
	}
	for _, name := range []string{"performance_result", "result_has_focus", "focus_has_resource"} {
		got, _ := p.fe.Table(name)
		sameReads(t, "reopened: "+name, got, p.ref.tables[name])
	}
}

// brokenFile is a file whose writes fail.
type brokenFile struct{ File }

func (brokenFile) Write([]byte) (int, error) { return 0, errFault }

// TestFileEngineCloseAlwaysClosesWAL: Close releases the log's handle and
// reports every failure, instead of returning at the first.
func TestFileEngineCloseAlwaysClosesWAL(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	wal := fe.log.f
	fe.log.f = brokenFile{wal} // the buffered CREATE TABLE record cannot be written
	if err := fe.Close(); err == nil {
		t.Fatal("Close hid a flush failure")
	}
	if err := wal.Close(); err == nil {
		t.Fatal("Close left the WAL file open after a flush failure")
	}
}

// TestFileEngineOpenClosesWALOnError: an open that fails after the WAL
// was opened (the manifest cannot be written) does not leak its handle.
func TestFileEngineOpenClosesWALOnError(t *testing.T) {
	dir := t.TempDir()
	fe := openTestEngine(t, dir)
	fe.Close()
	before := openFiles(t)
	// A directory squatting on the manifest's temp name fails the rewrite.
	if err := os.MkdirAll(dir+"/"+segmentSubdir+"/"+manifestFile+".tmp/x", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); err == nil {
		t.Fatal("OpenFile succeeded without a writable manifest")
	}
	if after := openFiles(t); after != before {
		t.Fatalf("%d files open after the failed OpenFile, %d before", after, before)
	}
}

func openFiles(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(entries)
}

// TestFileEngineStatsCountsFlushFailure: when Stats cannot flush the WAL
// it keeps the last good wal_bytes and counts the failure.
func TestFileEngineStatsCountsFlushFailure(t *testing.T) {
	fe := openTestEngine(t, t.TempDir())
	defer fe.Close()
	if err := fe.CreateTable(resultSchema()); err != nil {
		t.Fatal(err)
	}
	good := fe.Stats()
	if good.WALBytes == 0 || good.FlushErrors != 0 {
		t.Fatalf("healthy stats = %+v", good)
	}
	healthy, mark := fe.log.f, fe.log.size
	fe.log.f = brokenFile{healthy}
	fe.log.append([]byte("x"))
	bad := fe.Stats()
	if bad.FlushErrors != 1 || bad.WALBytes != good.WALBytes || bad.DiskBytes != good.DiskBytes {
		t.Fatalf("stats after a failed flush = wal %d disk %d errors %d, want the last good %d / %d and 1 error",
			bad.WALBytes, bad.DiskBytes, bad.FlushErrors, good.WALBytes, good.DiskBytes)
	}
	fe.log.f = healthy
	if err := fe.log.rewind(mark); err != nil {
		t.Fatal(err)
	}
}
