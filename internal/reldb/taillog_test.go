package reldb

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// crashCheck is the crash sweep's judge. It takes the store as a power
// loss at this instant would leave it — what was synced, nothing else —
// reopens it, and requires one of the states the history may recover to
// (states), no log file below the manifest's low-water one left in the
// store, and a second reopen that changes nothing.
func (p *hotPair) crashCheck(label string, tables []string, states []string) {
	p.t.Helper()
	crashed := p.fsys.(*memFS).Crash()
	var after map[string]int64
	var first string
	for _, pass := range []string{"reopen", "second reopen"} {
		fe, err := open(crashed, KindMem, p.dir)
		if err != nil {
			p.t.Fatalf("%s: %s: %v", label, pass, err)
		}
		// Judge what open left: a pass the reopened engine's compactor
		// runs moves the low-water mark before it deletes the logs below.
		fe.seg.shutdown()
		got := dumpDB(fe, tables)
		if first == "" && !slices.Contains(states, got) {
			p.t.Fatalf("%s: %s holds no state the history may recover to:\n%s\nthe latest is\n%s", label, pass, got, states[len(states)-1])
		} else if first != "" && got != first {
			p.t.Fatalf("%s: %s holds\n%s\nwhere the first held\n%s", label, pass, got, first)
		}
		first = got
		for _, path := range logFiles(p.t, crashed, p.dir) {
			if seq, _ := parseLogName(filepath.Base(path)); seq < fe.seg.low {
				p.t.Fatalf("%s: %s left %s in the store, below the low-water log file %d", label, pass, path, fe.seg.low)
			}
		}
		if err := fe.Close(); err != nil {
			p.t.Fatalf("%s: close after %s: %v", label, pass, err)
		}
		if files := listing(p.t, crashed, p.dir); after == nil {
			after = files
		} else if !reflect.DeepEqual(files, after) {
			p.t.Fatalf("%s: the second reopen is not a fixed point:\n first %v\nsecond %v", label, after, files)
		}
	}
}

// nameSchemas returns the ten tables of the PerfTrack schema that
// hotSchemas leaves out, in its shape — the dictionaries, the resources
// with their types, attributes and constraints, and the histograms — but
// with no unique index, which blocks do not keep.
func nameSchemas() []*Schema {
	id, name := Column{Name: "id", Type: KindInt}, Column{Name: "name", Type: KindString}
	ref := func(col string, nullable bool) Column { return Column{Name: col, Type: KindInt, Nullable: nullable} }
	pk := []string{"id"}
	dict := func(table string) *Schema {
		return &Schema{Name: table, Columns: []Column{id, name}, PrimaryKey: pk,
			Indexes: []IndexSpec{{Name: table + "_name", Columns: []string{"name"}}}}
	}
	return []*Schema{
		dict("application"),
		{Name: "execution", Columns: []Column{id, name, ref("application_id", false)}, PrimaryKey: pk,
			ForeignKeys: []ForeignKey{{Column: "application_id", RefTable: "application", RefColumn: "id"}},
			Indexes:     []IndexSpec{{Name: "execution_name", Columns: []string{"name"}}, {Name: "execution_app", Columns: []string{"application_id"}}}},
		{Name: "focus_framework", Columns: []Column{id, {Name: "type_name", Type: KindString}, ref("parent_id", true)}, PrimaryKey: pk,
			ForeignKeys: []ForeignKey{{Column: "parent_id", RefTable: "focus_framework", RefColumn: "id"}}},
		{Name: "resource_item", Columns: []Column{id, name, ref("parent_id", true), ref("focus_framework_id", false), ref("execution_id", true)},
			PrimaryKey: pk, ForeignKeys: []ForeignKey{
				{Column: "parent_id", RefTable: "resource_item", RefColumn: "id"},
				{Column: "focus_framework_id", RefTable: "focus_framework", RefColumn: "id"},
				{Column: "execution_id", RefTable: "execution", RefColumn: "id"}},
			Indexes: []IndexSpec{{Name: "resource_item_name", Columns: []string{"name"}}, {Name: "resource_item_parent", Columns: []string{"parent_id"}}}},
		{Name: "resource_attribute", Columns: []Column{id, ref("resource_id", false), name, {Name: "value", Type: KindString}}, PrimaryKey: pk,
			ForeignKeys: []ForeignKey{{Column: "resource_id", RefTable: "resource_item", RefColumn: "id"}},
			Indexes:     []IndexSpec{{Name: "resource_attribute_name", Columns: []string{"name", "value"}}}},
		{Name: "resource_constraint", Columns: []Column{id, ref("resource_id_1", false), ref("resource_id_2", false)}, PrimaryKey: pk,
			ForeignKeys: []ForeignKey{{Column: "resource_id_1", RefTable: "resource_item", RefColumn: "id"},
				{Column: "resource_id_2", RefTable: "resource_item", RefColumn: "id"}}},
		dict("metric"), dict("performance_tool"), dict("units"),
		{Name: "result_histogram", Columns: []Column{{Name: "result_id", Type: KindInt}, {Name: "bins", Type: KindString}},
			PrimaryKey:  []string{"result_id"},
			ForeignKeys: []ForeignKey{{Column: "result_id", RefTable: "performance_result", RefColumn: "id"}}},
	}
}

// loadNames inserts the rows a document adds to nameSchemas' tables but
// the histograms, all under key k: an application, its execution, a
// resource type, a resource of that type under the previous document's,
// its attribute and a constraint, a metric, a tool and a unit.
func loadNames(eng inserter, k int64) error {
	parent := Null()
	if k > 0 {
		parent = Int(k - 1)
	}
	for _, ins := range []struct {
		table string
		row   Row
	}{
		{"application", Row{Int(k), Str(fmt.Sprintf("app%d", k))}},
		{"execution", Row{Int(k), Str(fmt.Sprintf("exec%d", k)), Int(k)}},
		{"focus_framework", Row{Int(k), Str(fmt.Sprintf("type%d", k)), Null()}},
		{"resource_item", Row{Int(k), Str(fmt.Sprintf("/r%d", k)), parent, Int(k), Int(k)}},
		{"resource_attribute", Row{Int(k), Int(k), Str("nprocs"), Str(fmt.Sprint(k % 4))}},
		{"resource_constraint", Row{Int(k), Int(k), parent}},
		{"metric", Row{Int(k), Str(fmt.Sprintf("m%d", k))}},
		{"performance_tool", Row{Int(k), Str("tool")}},
		{"units", Row{Int(k), Str("s")}},
	} {
		if ins.table == "resource_constraint" && k == 0 {
			continue
		}
		if _, err := eng.Insert(ins.table, ins.row); err != nil {
			return err
		}
	}
	return nil
}

// TestSegmentTailLogCrashSweep crashes the engine after every durable
// step of every compaction pass and checkpoint of a scripted history over
// all sixteen tables of the PerfTrack schema — by taking, from the step
// hook, what a power loss would leave of its in-memory filesystem — and
// judges each crash with crashCheck: the store must recover to a state the
// history went through, no older than the last one every log file was
// fsynced in (a pass's barrier). The two rules that make deleting a log
// file safe are checked directly as well: the barrier (rule 1: once a
// manifest has named a pass's segments and its log file, that file holds
// no byte no fsync covers, its carry included) and the pass counted last
// (rule 2: no pass is counted before the log files its manifest made dead
// are gone). A synchronous commit is atomic: a crash after its write
// recovers to the state just before it, one after its fsync to the state
// just after it. Deletes of flushed, sealed and tail rows, an insert
// below the flushed maximum and a commit that lands during a checkpoint
// are part of the history. The background compactor is stopped and the
// passes are run by the script, so every step fires on this goroutine.
func TestSegmentTailLogCrashSweep(t *testing.T) {
	p := newHotPairOn(t, newMemFS(), "db")
	defer func() { p.fe.Close() }()
	st := p.fe.seg
	st.shutdown()
	p.fe.SetSegmentFlushRows(64)
	tables := slices.Clone(HotTables)
	for _, schema := range nameSchemas() {
		p.both("create "+schema.Name, func(eng writer) error { return eng.CreateTable(schema) })
		tables = append(tables, schema.Name)
	}
	if len(tables) != 16 {
		t.Fatalf("the sweep covers %d tables, want the schema's 16", len(tables))
	}
	if err := p.fe.Checkpoint(); err != nil { // the history starts durable
		t.Fatal(err)
	}
	// history is every state the writes so far acknowledged; a crash may
	// recover to history[floor:] — writes are not fsynced by themselves,
	// and everything up to a barrier is.
	history := []string{p.ref.dump(tables)}
	floor, crashes := 0, 0

	steps := map[string]int{}
	var phase string
	var hand func() // the script's hand inside a pass: runs once, after the next step named handAt
	var handAt string
	// commitCrashes are the states a crash inside the synchronous commit
	// in flight recovers to, by step, judged once the commit is done.
	commitCrashes := map[string]string{}
	counted0 := st.compactions.Load() // the set-up checkpoint's pass
	st.step = func(step string) {
		steps[step]++
		if step == "commit write" || step == "commit" {
			if p.fe.syncWAL {
				crashed, err := open(p.fsys.(*memFS).Crash(), KindMem, p.dir)
				if err != nil {
					t.Fatalf("%s: after step %q: %v", phase, step, err)
				}
				commitCrashes[step] = dumpDB(crashed, tables)
				crashed.Close()
				crashes++
			}
			return
		}
		if step == "barrier" {
			floor = len(history) - 1
		}
		// Rule 2: a pass is counted once the log files it made dead are gone, not before.
		if counted, done := st.compactions.Load()-counted0, steps["log removal"]; step == "log removal" && counted != uint64(done-1) ||
			step != "log removal" && counted != uint64(done) {
			t.Fatalf("%s: after step %q, %d passes are counted and %d have removed their dead log files (rule 2)", phase, step, counted, done)
		}
		if f := hand; step == handAt && f != nil {
			hand = nil
			f()
		}
		if l := p.fe.log; step == "manifest" && l.size > l.synced {
			// Rule 1: a manifest has named the pass's segments and log file,
			// so that file may hold no unsynced byte.
			t.Fatalf("%s: a manifest was written while %s holds %d bytes no fsync covers (rule 1)", phase, l.path, l.size-l.synced)
		}
		p.crashCheck(phase+": after "+step, tables, history[floor:])
		crashes++
	}
	pass := func(force bool) {
		t.Helper()
		st.compactMu.Lock()
		defer st.compactMu.Unlock()
		if err := st.drain(force); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	// write applies op to the engine and the model and adds the state it
	// acknowledged to the history; in synchronous mode that state is
	// durable, and a crash inside its commit recovers to it or to the one
	// before.
	write := func(what string, op func(writer) error) {
		t.Helper()
		phase = what
		p.both(what, op)
		history = append(history, p.ref.dump(tables))
		if p.fe.syncWAL {
			floor = len(history) - 1
			for step, want := range map[string]string{"commit write": history[floor-1], "commit": history[floor]} {
				if got, ok := commitCrashes[step]; !ok || got != want {
					t.Fatalf("%s: a crash after the commit's step %q recovers to\n%s\nwant\n%s", what, step, got, want)
				}
			}
			clear(commitCrashes)
		}
	}
	// load is a document's commit: one transaction, a row in each table
	// nameSchemas makes but the histograms, and results, foci and closure
	// links — links descending within a result, as loadResults makes them.
	next, docs := 0, int64(0)
	load := func(n int) {
		t.Helper()
		first := next
		next += n
		write(fmt.Sprintf("load of results %d..%d", first, next-1), func(eng writer) error {
			tx := eng.begin()
			if err := loadNames(tx, docs); err != nil {
				return err
			}
			if err := loadResults(tx, first, n); err != nil {
				return err
			}
			return tx.Commit()
		})
		docs++
	}
	sealed := func(table string) bool { tab, _ := p.fe.Table(table); return tab.sealed != nil }

	// Committed transactions across several seals; the first forced pass
	// puts every table in segments.
	load(100)
	pass(false)
	load(40)
	pass(true)
	for _, name := range tables {
		if name != "result_histogram" && hotStatus(t, p.fe, name).Segments == 0 {
			t.Fatalf("set-up: %s has no segment", name)
		}
	}
	// A synchronous commit, crashed after its write and after its fsync.
	p.fe.SetSync(true)
	load(20)
	p.fe.SetSync(false)
	next++
	write("histogram of a private result", func(eng writer) error {
		tx := eng.begin()
		rid, err := tx.Insert("performance_result", resultRow(next-1))
		if err != nil {
			return err
		}
		// The child finds its parent in the transaction.
		if _, err := tx.Insert("result_histogram", Row{Int(rid), Str("1,2,3")}); err != nil {
			return err
		}
		if _, err := tx.Insert("result_has_focus", Row{Int(rid), Int(9)}); err != nil {
			return err
		}
		return tx.Commit()
	})
	if err := p.both("histogram of no result", func(eng writer) error {
		_, err := eng.Insert("result_histogram", Row{Int(1 << 30), Str("")})
		return err
	}); err == nil {
		t.Fatal("a histogram of a result nobody has was accepted")
	}
	p.both("create index", func(eng writer) error {
		return eng.CreateIndex("performance_result", IndexSpec{Name: "pr_tool", Columns: []string{"tool_id"}})
	})
	write("rolled-back transaction", func(eng writer) error {
		tx := eng.begin()
		rid, err := tx.Insert("performance_result", resultRow(7))
		if err != nil {
			return err
		}
		if _, err := tx.Insert("result_has_focus", Row{Int(rid), Int(3)}); err != nil {
			return err
		}
		return tx.Rollback()
	})
	pass(false)

	// Deletes. A delete of a flushed row of focus_has_resource replaces its
	// segment, and its record goes to the log: the pass that makes that log
	// file dead must write the replacement, and a manifest name it, first.
	// One transaction deletes flushed rows of the resource tables the same
	// way.
	write("delete of a flushed row", func(eng writer) error { return eng.Delete("focus_has_resource", 5) })
	if st := hotStatus(t, p.fe, "focus_has_resource"); st.Segments == 0 || st.PendingRows == 0 {
		t.Fatalf("focus_has_resource after the delete = %+v, want its segments and a tail", st)
	}
	write("delete of a flushed resource", func(eng writer) error {
		tx := eng.begin()
		for _, table := range []string{"resource_constraint", "resource_attribute"} {
			if err := tx.Delete(table, 1); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
	load(100)
	if !sealed("focus_has_resource") {
		t.Fatal("set-up: focus_has_resource is not sealed")
	}
	phase = "pass writing a replacement and the tail holding its delete"
	pass(false)
	// A delete of a sealed row replaces the sealed tail; one transaction
	// deletes it and a flushed row of another table.
	lastResult := func() int64 {
		rows := p.ref.tables["performance_result"].ordered()
		return rows[len(rows)-1].id
	}
	load(70)
	if !sealed("performance_result") {
		t.Fatal("set-up: performance_result is not sealed")
	}
	write("delete of a sealed row and a flushed one", func(eng writer) error {
		tx := eng.begin()
		if err := tx.Delete("performance_result", lastResult()); err != nil {
			return err
		}
		if err := tx.Delete("result_has_focus", 17); err != nil {
			return err
		}
		return tx.Commit()
	})
	pass(false)
	// A key below the flushed maximum: a run that overlaps the segments.
	write("insert below the flushed maximum", func(eng writer) error {
		_, err := eng.Insert("focus_has_resource", Row{Int(2), Int(900)})
		return err
	})
	load(70)
	pass(false)
	if hotStatus(t, p.fe, "performance_result").PendingRows != 0 {
		t.Fatalf("performance_result after the passes = %+v", hotStatus(t, p.fe, "performance_result"))
	}

	// A commit that lands during a checkpoint, once its drain's first pass
	// is done, stays in the tails, and the checkpoint's last pass carries it
	// into the new log file; a delete of one of its rows then replaces the
	// tail.
	load(10)
	phase = "checkpoint with a commit after its seal"
	handAt, hand = "log removal", func() {
		first := next
		next += 20
		write("late load", func(eng writer) error { return commitResults(eng, first, 20) })
	}
	if err := p.fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := hotStatus(t, p.fe, "performance_result"); hand != nil || st.PendingRows != 20 {
		t.Fatalf("performance_result after the checkpoint = %+v, want the late commit in its tail", st)
	}
	victim := lastResult() // the late commit's last result
	write("delete of a row committed during a checkpoint", func(eng writer) error { return eng.Delete("performance_result", victim) })
	pass(false)
	load(60)
	pass(false)

	phase = "final checkpoint"
	if err := p.fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logHoldsSchemaOnly(t, p.fsys, p.dir)
	load(70)
	pass(false)
	if st := hotStatus(t, p.fe, "performance_result"); st.PendingRows != 0 || len(logFiles(t, p.fsys, p.dir)) != 1 {
		t.Fatalf("performance_result after the last pass = %+v, want it flushed and one log file", st)
	}
	for _, step := range []string{"rotate", "segment file", "barrier", "manifest", "log removal", "commit write", "commit"} {
		if steps[step] == 0 {
			t.Errorf("the history never crashed after step %q", step)
		}
	}
	t.Logf("%d crash points covered", crashes)
	p.check("survivor")
}

// logHoldsTails fails unless the store has one log file, which holds the
// schema first and then exactly the rows the tables' tails hold, each
// once — what SegmentStats counts as PendingRows — and no delete; with
// oneGroup, as the one group a pass's carry is. It returns how many rows
// that is.
func logHoldsTails(t *testing.T, p *hotPair, oneGroup bool) (pending int64) {
	t.Helper()
	files := logFiles(t, p.fsys, p.dir)
	if len(files) != 1 {
		t.Fatalf("%d log files, want 1: %v", len(files), files)
	}
	recs := logRecords(t, p.fsys, files[0])
	logged := map[string]map[int64]bool{}
	for i, m := range recs {
		switch {
		case m.op == opRotate && i == 0, m.op == opCreateTable && (i == 0 || recs[i-1].op != opInsertBlock):
		case m.op == opInsertBlock:
			if logged[m.table] == nil {
				logged[m.table] = map[int64]bool{}
			}
			for _, id := range Values(&m.block.rowIDs) {
				if logged[m.table][id] {
					t.Fatalf("the log holds row %d of %s twice", id, m.table)
				}
				logged[m.table][id] = true
			}
		default:
			t.Fatalf("the log's record %d is op %d on %s", i, m.op, m.table)
		}
		if oneGroup && m.more != (i < len(recs)-1) {
			t.Fatalf("the log's record %d ends a group, want one group", i)
		}
	}
	for _, status := range p.fe.SegmentStats().Tables {
		tab, _ := p.fe.Table(status.Table)
		held := map[int64]bool{}
		for _, tail := range tab.tailsLocked() {
			for _, id := range Values(&tail.rowIDs) {
				held[id] = true
			}
		}
		if len(logged[status.Table]) != len(held) || int64(len(held)) != status.PendingRows {
			t.Fatalf("%s: the log holds %d rows, the tails %d, pending_rows says %d", status.Table, len(logged[status.Table]), len(held), status.PendingRows)
		}
		for id := range held {
			if !logged[status.Table][id] {
				t.Fatalf("%s: the log lacks row %d of the tail", status.Table, id)
			}
		}
		delete(logged, status.Table)
		pending += status.PendingRows
	}
	for table := range logged {
		t.Fatalf("the log holds rows of %s, which has none", table)
	}
	return pending
}

// TestSegmentLogsHoldOnlyUnflushedRows: a pass carries the tails forward
// into a new log file and deletes the older ones once its manifest is
// durable. After loads that cross the flush threshold and an idle
// compactor, the store has one log file, which holds the schema and
// exactly the rows the tails hold; wal_bytes is its size, and reopening
// the un-checkpointed directory applies that many rows, not one per row
// ever loaded.
func TestSegmentLogsHoldOnlyUnflushedRows(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	p.fe.SetSegmentFlushRows(64)
	for first := 0; first < 500; first += 50 {
		p.load(first, 50)
	}
	st := p.fe.seg
	st.compactMu.Lock() // waits for the pass in flight and finishes what is sealed
	err := st.drain(false)
	st.compactMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	before := p.fe.Stats() // writes the log
	for _, status := range p.fe.SegmentStats().Tables {
		if status.Rows == 0 {
			t.Fatalf("%s has no flushed rows: the loads did not cross the threshold", status.Table)
		}
	}
	pending := logHoldsTails(t, p, false)
	if size, _ := p.fsys.Size(logFiles(t, p.fsys, p.dir)[0]); before.WALBytes != size {
		t.Fatalf("wal_bytes = %d, want the log file's %d", before.WALBytes, size)
	}
	if size, err := p.fe.DiskSize(); err != nil || size != before.DiskBytes {
		t.Fatalf("DiskSize = %d, %v; Stats says %d", size, err, before.DiskBytes)
	}
	if seg := p.fe.SegmentStats(); seg.LogBytesAppended-seg.LogBytesTrimmed != uint64(before.WALBytes) {
		t.Fatalf("appended %d - trimmed %d log bytes != live %d", seg.LogBytesAppended, seg.LogBytesTrimmed, before.WALBytes)
	}
	abandon(p.fe)
	p.fe = openTestEngine(t, p.dir)
	if int64(p.fe.replayedRows) != pending {
		t.Fatalf("reopen applied %d rows from the log, want the %d pending rows", p.fe.replayedRows, pending)
	}
	p.check("reopened")
}

// TestSegmentRarelyWrittenTablePinsNoLog: one commit writes a row of a
// table nothing writes again; then loads that seal performance_result
// alone drive pass after pass. That row holds no log file back: at every
// step of every pass the store has at most two log files, and after an
// idle pass its one log file holds the schema and exactly the rows the
// tails hold — that row among them — as one group.
func TestSegmentRarelyWrittenTablePinsNoLog(t *testing.T) {
	p := newHotPairOn(t, newMemFS(), "db")
	defer func() { p.fe.Close() }()
	st := p.fe.seg
	st.shutdown()
	p.fe.SetSegmentFlushRows(64)
	app := nameSchemas()[0]
	p.both("create application", func(w writer) error { return w.CreateTable(app) })
	p.both("one application", func(w writer) error { _, err := w.Insert("application", Row{Int(1), Str("irs")}); return err })
	steps := 0
	st.step = func(step string) {
		if n := len(logFiles(t, p.fsys, p.dir)); n > 2 {
			t.Fatalf("after step %q, %d log files", step, n)
		}
		steps++
	}
	for first := 0; first < 400; first += 40 {
		p.both("results", func(w writer) error {
			tx := w.begin()
			for i := first; i < first+40; i++ {
				if _, err := tx.Insert("performance_result", resultRow(i)); err != nil {
					return err
				}
			}
			return tx.Commit()
		})
		st.compactMu.Lock()
		err := st.drain(false)
		st.compactMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	st.compactMu.Lock()
	_, err := st.pass(false, true) // idle
	st.compactMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if pr, app := hotStatus(t, p.fe, "performance_result"), hotStatus(t, p.fe, "application"); pr.Segments < 5 || app.Segments != 0 || app.PendingRows != 1 {
		t.Fatalf("after the loads: performance_result %+v, application %+v; want several passes and the application row in its tail", pr, app)
	}
	logHoldsTails(t, p, true)
	if steps == 0 {
		t.Fatal("no pass ran")
	}
	p.reopen()
	p.check("reopened")
	if tab, _ := p.fe.Table("application"); tab.Len() != 1 {
		t.Fatalf("the application table holds %d rows after a reopen, want 1", tab.Len())
	}
}
