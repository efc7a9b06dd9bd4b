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

// TestSegmentTailLogCrashSweep crashes the engine after every durable
// step of every compaction pass and checkpoint of a scripted history — by
// taking, from the step hook, what a power loss would leave of its
// in-memory filesystem — and judges each crash with crashCheck: the store
// must recover to a state the history went through, no older than the
// last one every log was fsynced in (a pass's barrier, a checkpoint's
// snapshot). The history is built so that dropping any of the rules that
// make deleting a log safe loses or resurrects a row at some step: the
// barrier (rule 1, checked directly too: once a manifest has named a
// pass's segments, no log that outlives the pass holds bytes no fsync
// covers), the pin (rule 2: a commit that lands between a checkpoint's
// drain and its snapshot, then a delete of a row the snapshot holds, then
// a re-seal), and a pass writing the replacement a delete made before it
// retires the log holding the delete. Deletes of flushed, sealed and tail
// rows and an insert below the flushed maximum are part of it. The
// background compactor is stopped and the passes are run by the script,
// so every step fires on this goroutine.
func TestSegmentTailLogCrashSweep(t *testing.T) {
	p := newHotPairOn(t, newMemFS(), "db")
	defer func() { p.fe.Close() }()
	st := p.fe.seg
	st.shutdown()
	p.fe.SetSegmentFlushRows(64)
	metric := &Schema{
		Name:       "metric",
		Columns:    []Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}},
		PrimaryKey: []string{"id"},
	}
	p.both("create metric", func(eng writer) error { return eng.CreateTable(metric) })
	histogram := &Schema{
		Name:        "result_histogram",
		Columns:     []Column{{Name: "result_id", Type: KindInt}, {Name: "bins", Type: KindString}},
		PrimaryKey:  []string{"result_id"},
		ForeignKeys: []ForeignKey{{Column: "result_id", RefTable: "performance_result", RefColumn: "id"}},
	}
	p.both("create result_histogram", func(eng writer) error { return eng.CreateTable(histogram) })
	tables := append([]string{"metric", "result_histogram"}, segmentHotTables...)
	if err := p.fe.Checkpoint(); err != nil { // the history starts durable
		t.Fatal(err)
	}
	// history is every state the writes so far acknowledged; a crash may
	// recover to history[floor:] — writes are not fsynced by themselves,
	// and everything up to a barrier or a snapshot is.
	history := []string{p.ref.dump(tables)}
	floor, crashes := 0, 0

	steps := map[string]int{}
	var phase string
	var hand func() // the script's hand inside a pass: runs once, after the next step named handAt
	var handAt string
	st.step = func(step string) {
		steps[step]++
		if step == "barrier" || step == "snapshot" {
			floor = len(history) - 1
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
	pass := func() {
		t.Helper()
		st.compactMu.Lock()
		defer st.compactMu.Unlock()
		if err := st.drain(false); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	// write applies op to the engine and the model and adds the state it
	// acknowledged to the history.
	write := func(what string, op func(writer) error) {
		t.Helper()
		phase = what
		p.both(what, op)
		history = append(history, p.ref.dump(tables))
	}
	// load is a document's commit: one transaction, a metric row in
	// perftrack.wal and results, foci and closure links in the tail logs —
	// links descending within a result, as loadResults makes them.
	next := 0
	load := func(n int) {
		t.Helper()
		first := next
		next += n
		write(fmt.Sprintf("load of results %d..%d", first, next-1), func(eng writer) error {
			tx := eng.begin()
			if _, err := tx.Insert("metric", Row{Int(int64(first)), Str("m")}); err != nil {
				return err
			}
			if err := loadResults(tx, first, n); err != nil {
				return err
			}
			return tx.Commit()
		})
	}
	sealed := func(table string) bool { tab, _ := p.fe.Table(table); return tab.sealed != nil }

	// Committed transactions across several seals.
	load(100)
	pass()
	load(40)
	pass()
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
	pass()

	// Deletes. A delete of a flushed row of focus_has_resource replaces its
	// segment, and its record goes to the tail log of the tail the next
	// load seals: the pass that retires that log must write the
	// replacement, and a manifest name it, first.
	write("delete of a flushed row", func(eng writer) error { return eng.Delete("focus_has_resource", 5) })
	if st := hotStatus(t, p.fe, "focus_has_resource"); st.Segments == 0 || st.PendingRows == 0 {
		t.Fatalf("focus_has_resource after the delete = %+v, want its segments and a tail", st)
	}
	load(100)
	if !sealed("focus_has_resource") {
		t.Fatal("set-up: focus_has_resource is not sealed")
	}
	phase = "pass writing a replacement and the tail holding its delete"
	pass()
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
	pass()
	// A key below the flushed maximum: a run that overlaps the segments.
	write("insert below the flushed maximum", func(eng writer) error {
		_, err := eng.Insert("focus_has_resource", Row{Int(2), Int(900)})
		return err
	})
	load(70)
	pass()
	if hotStatus(t, p.fe, "performance_result").PendingRows != 0 {
		t.Fatalf("performance_result after the passes = %+v", hotStatus(t, p.fe, "performance_result"))
	}

	// Rule 2. A commit that lands between a checkpoint's drain and its
	// snapshot — here, once the drain's one pass is done — has its rows
	// snapshotted.
	load(10)
	phase = "checkpoint with a commit after its drain"
	handAt, hand = "log removal", func() {
		first := next
		next += 20
		write("late load", func(eng writer) error { return commitResults(eng, first, 20) })
	}
	if err := p.fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if counts := countSnapshotRows(t, p.fsys, filepath.Join(p.dir, snapshotFile)); hand != nil || counts["performance_result"] != 20 {
		t.Fatalf("the snapshot holds %d performance_result rows, want the late commit's 20", counts["performance_result"])
	}
	pass()
	victim := lastResult() // the late commit's last result
	// The delete replaces performance_result's tail — the victim is in it —
	// and a later commit seals it, without the victim.
	write("delete of a snapshotted row", func(eng writer) error { return eng.Delete("performance_result", victim) })
	pass()
	load(60)
	pass()
	if st := hotStatus(t, p.fe, "performance_result"); st.PendingRows != 0 || st.LogFiles == 0 {
		t.Fatalf("performance_result after the re-seal = %+v, want it flushed and its logs pinned", st)
	}

	phase = "final checkpoint"
	if err := p.fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if logs := tailLogsOnDisk(t, p.fsys, p.dir); len(logs) != 0 {
		t.Fatalf("tail logs left after a checkpoint: %v", logs)
	}
	load(70)
	pass()
	if st := hotStatus(t, p.fe, "performance_result"); st.PendingRows != 0 || st.LogFiles != 0 {
		t.Fatalf("performance_result after the last pass = %+v, want it flushed and its logs trimmed", st)
	}
	for _, step := range []string{"seal", "segment file", "barrier", "manifest", "log removal",
		"snapshot", "checkpoint manifest", "checkpoint truncate"} {
		if steps[step] == 0 {
			t.Errorf("the history never crashed after step %q", step)
		}
	}
	t.Logf("%d crash points covered", crashes)
	p.check("survivor")
}

// TestSegmentLogsHoldOnlyUnflushedRows: hot-table records have one
// writer, the tail-log path. After loads that cross the flush threshold
// and an idle compactor, perftrack.wal holds no row of a hot table, each
// table's tail logs hold exactly the rows its row sets do — what
// SegmentStats counts as PendingRows — and reopening the un-checkpointed
// directory applies that many hot records, not one per row ever loaded.
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
		if m.isRowOp() && isHotTable(m.table) {
			t.Fatalf("perftrack.wal holds a record of hot table %s (op %d, row %d)", m.table, m.op, m.id)
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
		if len(tab.active.rows) != 0 {
			t.Fatalf("%s: %d rows are in the row set of a table that was only loaded into", status.Table, len(tab.active.rows))
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
	if int64(p.fe.replayedHot) != pending {
		t.Fatalf("reopen applied %d hot-table records, want the %d pending rows", p.fe.replayedHot, pending)
	}
	p.check("reopened")
}
