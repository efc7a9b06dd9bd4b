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
// (states), no tail log below its table's low-water mark left in the
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
		got := dumpDB(fe, tables)
		if first == "" && !slices.Contains(states, got) {
			p.t.Fatalf("%s: %s holds no state the history may recover to:\n%s\nthe latest is\n%s", label, pass, got, states[len(states)-1])
		} else if first != "" && got != first {
			p.t.Fatalf("%s: %s holds\n%s\nwhere the first held\n%s", label, pass, got, first)
		}
		first = got
		for table, seqs := range tailLogsOnDisk(p.t, crashed, p.dir) {
			for _, seq := range seqs {
				if low := hotStatus(p.t, fe, table).LowWater; seq < low {
					p.t.Fatalf("%s: %s left tail log %d of %s in the store, below the low-water mark %d", label, pass, seq, table, low)
				}
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

// foreignKeysHold fails unless every foreign key of every table of the
// engine is matched: what a crash between two of a commit's log flushes
// must leave (rule 3).
func foreignKeysHold(t *testing.T, label string, db *DB) {
	t.Helper()
	for _, tab := range db.order {
		for _, fk := range tab.schema.ForeignKeys {
			parent := db.tables[fk.RefTable]
			ci, pi := tab.schema.ColumnIndex(fk.Column), parent.schema.ColumnIndex(fk.RefColumn)
			held := map[Value]bool{}
			parent.Scan(func(_ int64, row Row) bool { held[row[pi]] = true; return true })
			tab.Scan(func(id int64, row Row) bool {
				if v := row[ci]; !v.IsNull() && !held[v] {
					t.Fatalf("%s: %s row %d has %s=%s, which %s lacks", label, tab.schema.Name, id, fk.Column, v, fk.RefTable)
				}
				return true
			})
		}
	}
}

// TestSegmentTailLogCrashSweep crashes the engine after every durable
// step of every compaction pass and checkpoint of a scripted history over
// all sixteen tables of the PerfTrack schema — by taking, from the step
// hook, what a power loss would leave of its in-memory filesystem — and
// judges each crash with crashCheck: the store must recover to a state the
// history went through, no older than the last one every log was fsynced
// in (a pass's barrier). The history is built so that dropping any of the
// three rules that make deleting a log safe fails it, each checked
// directly as well: the barrier (rule 1: once a manifest has named a
// pass's segments, no log that outlives the pass holds bytes no fsync
// covers), the pass counted last (rule 2: no pass is counted before its
// logs are gone) and the flush order (rule 3: in synchronous mode a
// crash after any of a commit's log flushes leaves every foreign key
// matched); so does a pass that retires the log holding a delete without
// writing the replacement the delete made. Deletes of flushed, sealed and
// tail rows, an insert below the flushed maximum and a commit that lands
// during a checkpoint are part of it. The background compactor is stopped
// and the passes are run by the script, so every step fires on this
// goroutine.
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
	st.step = func(step string) {
		steps[step]++
		if step == "commit flush" {
			// Rule 3: a crash between a synchronous commit's log flushes
			// leaves parents without children, never the reverse.
			if p.fe.syncWAL {
				crashed, err := open(p.fsys.(*memFS).Crash(), KindMem, p.dir)
				if err != nil {
					t.Fatalf("%s: after a commit's log flush: %v", phase, err)
				}
				foreignKeysHold(t, phase+": after a commit's log flush", crashed)
				crashed.Close()
				crashes++
			}
			return
		}
		if step == "barrier" {
			floor = len(history) - 1
		}
		// Rule 2: a pass is counted once its logs are gone, not before.
		if counted, done := st.compactions.Load(), steps["log removal"]; step == "log removal" && counted != uint64(done-1) ||
			step != "log removal" && counted != uint64(done) {
			t.Fatalf("%s: after step %q, %d passes are counted and %d have removed their logs (rule 2)", phase, step, counted, done)
		}
		if f := hand; step == handAt && f != nil {
			hand = nil
			f()
		}
		if step == "manifest" {
			// Rule 1: a manifest has named the pass's segments, so nothing that
			// outlives the pass — the retired logs do not — may be unsynced.
			for _, l := range append(p.fe.tailLogsLocked(), p.fe.wal) {
				if l.size > l.synced {
					t.Fatalf("%s: a manifest was written while %s holds %d bytes no fsync covers (rule 1)",
						phase, l.path, l.size-l.synced)
				}
			}
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
	// durable.
	write := func(what string, op func(writer) error) {
		t.Helper()
		phase = what
		p.both(what, op)
		history = append(history, p.ref.dump(tables))
		if p.fe.syncWAL {
			floor = len(history) - 1
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
	// A synchronous commit, crashed after each of its log flushes.
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
	// segment, and its record goes to the tail log of the tail the next
	// load seals: the pass that retires that log must write the
	// replacement, and a manifest name it, first. One transaction deletes
	// flushed rows of the resource tables the same way.
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
	// A delete of a sealed row replaces the sealed tail, which keeps its
	// logs; one transaction deletes it and a flushed row of another table.
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
	// is done, stays in the tails with its tail logs; a delete of one of
	// its rows then replaces the tail.
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
	if st := hotStatus(t, p.fe, "performance_result"); hand != nil || st.LogFiles == 0 {
		t.Fatalf("performance_result after the checkpoint = %+v, want the late commit in its tail logs", st)
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
	if logs := tailLogsOnDisk(t, p.fsys, p.dir); len(logs) != 0 {
		t.Fatalf("tail logs left after a checkpoint: %v", logs)
	}
	for _, m := range logRecords(t, p.fsys, p.fe.walPath()) {
		if m.op != opCreateTable {
			t.Fatalf("perftrack.wal holds op %d on %s after a checkpoint, want the schema alone", m.op, m.table)
		}
	}
	load(70)
	pass(false)
	if st := hotStatus(t, p.fe, "performance_result"); st.PendingRows != 0 || st.LogFiles != 0 {
		t.Fatalf("performance_result after the last pass = %+v, want it flushed and its logs trimmed", st)
	}
	for _, step := range []string{"seal", "segment file", "barrier", "manifest", "log removal", "wal rewrite", "commit flush"} {
		if steps[step] == 0 {
			t.Errorf("the history never crashed after step %q", step)
		}
	}
	t.Logf("%d crash points covered", crashes)
	p.check("survivor")
}

// TestSegmentLogsHoldOnlyUnflushedRows: row records have one writer, the
// tail-log path. After loads that cross the flush threshold and an idle
// compactor, perftrack.wal holds no row, each table's tail logs hold
// exactly the rows its tails do — what SegmentStats counts as PendingRows
// — and reopening the un-checkpointed directory applies that many
// records, not one per row ever loaded.
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
	before := p.fe.Stats() // flushes the logs
	for _, m := range logRecords(t, p.fsys, filepath.Join(p.dir, walFile)) {
		if m.isRowOp() {
			t.Fatalf("perftrack.wal holds a row of %s (op %d, row %d)", m.table, m.op, m.id)
		}
	}
	var pending, logBytes int64
	statuses := p.fe.SegmentStats().Tables
	if len(statuses) != len(hotSchemas()) {
		t.Fatalf("%d tables have a segment status, want all %d that were loaded into", len(statuses), len(hotSchemas()))
	}
	for _, status := range statuses {
		if status.Rows == 0 {
			t.Fatalf("%s has no flushed rows: the loads did not cross the threshold", status.Table)
		}
		logged := map[int64]bool{}
		for _, seq := range tailLogsOnDisk(t, p.fsys, p.dir)[status.Table] {
			if seq < status.LowWater {
				t.Fatalf("tail log %d of %s is below the low-water mark %d", seq, status.Table, status.LowWater)
			}
			for _, m := range logRecords(t, p.fsys, st.tailLogPath(status.Table, seq)) {
				if m.op != opInsert || m.table != status.Table || logged[m.id] {
					t.Fatalf("tail log %d of %s holds op %d on row %d of %s", seq, status.Table, m.op, m.id, m.table)
				}
				logged[m.id] = true
			}
		}
		tab, _ := p.fe.Table(status.Table)
		held := map[int64]bool{}
		for _, tail := range tab.tailsLocked() {
			for _, id := range Values(&tail.rowIDs) {
				held[id] = true
			}
		}
		if !reflect.DeepEqual(logged, held) || int64(len(held)) != status.PendingRows {
			t.Fatalf("%s: tail logs hold %d rows, the tails %d, pending_rows says %d", status.Table, len(logged), len(held), status.PendingRows)
		}
		pending += status.PendingRows
		logBytes += status.LogBytes
	}
	if wal, _ := p.fsys.Size(filepath.Join(p.dir, walFile)); before.WALBytes != wal+logBytes {
		t.Fatalf("wal_bytes = %d, want perftrack.wal's %d + the tail logs' %d", before.WALBytes, wal, logBytes)
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
		t.Fatalf("reopen applied %d tail-log records, want the %d pending rows", p.fe.replayedRows, pending)
	}
	p.check("reopened")
}
