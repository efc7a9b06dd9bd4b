package reldb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tailLogsOnDisk returns the sequence numbers of the tail logs in a
// store directory, by table.
func tailLogsOnDisk(t *testing.T, dir string) map[string][]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentSubdir, "tail-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[string][]int64)
	for _, path := range paths {
		table, seq, ok := parseTailLogName(filepath.Base(path))
		if !ok {
			t.Fatalf("tail log %s: unparseable name", path)
		}
		seqs[table] = append(seqs[table], seq)
	}
	return seqs
}

// logRecords decodes every record of a log file.
func logRecords(t *testing.T, path string) []*mutation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var muts []*mutation
	rr := newRecordReader(f)
	for {
		payload, err := rr.readRecord()
		if err != nil {
			return muts
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		muts = append(muts, m)
	}
}

// listing is every file under dir with its size.
func listing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	files := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		rel, _ := filepath.Rel(dir, path)
		files[rel] = info.Size()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// crashCheck is the crash sweep's judge. It takes the directory as a
// crash at this instant would leave it (a copy: everything the engine has
// written, nothing it still buffers), reopens the copy and requires the
// mem twin's rows — none lost, no deleted row back —, no tail log below
// its table's low-water mark left on disk, and a second reopen that
// changes nothing.
func (p *hotPair) crashCheck(label string, tables []string) {
	p.t.Helper()
	crashed := p.t.TempDir()
	copyTree(p.t, p.dir, crashed)
	var after map[string]int64
	for _, pass := range []string{"reopen", "second reopen"} {
		fe, err := OpenFile(crashed)
		if err != nil {
			p.t.Fatalf("%s: %s: %v", label, pass, err)
		}
		for _, name := range tables {
			got, _ := fe.Table(name)
			want, _ := p.mem.Table(name)
			if got == nil {
				p.t.Fatalf("%s: %s: table %s is gone", label, pass, name)
			}
			sameReads(p.t, label+": "+pass+": "+name, got, want)
		}
		for table, seqs := range tailLogsOnDisk(p.t, crashed) {
			for _, seq := range seqs {
				if low := hotStatus(p.t, fe, table).LowWater; seq < low {
					p.t.Fatalf("%s: %s left tail log %d of %s on disk, below the low-water mark %d", label, pass, seq, table, low)
				}
			}
		}
		if err := fe.Close(); err != nil {
			p.t.Fatalf("%s: close after %s: %v", label, pass, err)
		}
		if files := listing(p.t, crashed); after == nil {
			after = files
		} else if !reflect.DeepEqual(files, after) {
			p.t.Fatalf("%s: the second reopen is not a fixed point:\n first %v\nsecond %v", label, after, files)
		}
	}
}

// TestSegmentTailLogCrashSweep crashes the durable engine after every
// durable step of every compaction pass and checkpoint of a scripted
// history — by copying its directory from the step hook — and judges
// each copy with crashCheck. The history is built so that dropping any
// of the rules that make deleting a log safe loses or resurrects a row
// at some step: the barrier (rule 1, checked directly: once a manifest
// has named a pass's segments, no log that outlives the pass holds bytes
// no fsync covers — also when a sealed set the barrier skipped was
// rehydrated mid-pass and handed its logs on), the hand-off at
// rehydration (rule 2: a pass after a committed delete rehydrated
// focus_has_resource) and the pin (rule 3: a commit that lands between a
// checkpoint's drain and its snapshot, then a delete of a row the
// snapshot holds, then a re-seal). The background compactor is stopped
// and the passes are run by the script, so every step fires on this
// goroutine, when everything committed so far has reached the files.
func TestSegmentTailLogCrashSweep(t *testing.T) {
	p := newHotPair(t)
	defer func() { p.fe.Close() }()
	st := p.fe.seg
	st.shutdown()
	p.fe.SetSegmentFlushRows(64)
	metric := &Schema{
		Name:       "metric",
		Columns:    []Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}},
		PrimaryKey: []string{"id"},
	}
	p.both("create metric", func(eng Engine) error { return eng.CreateTable(metric) })
	histogram := &Schema{
		Name:        "result_histogram",
		Columns:     []Column{{Name: "result_id", Type: KindInt}, {Name: "bins", Type: KindString}},
		PrimaryKey:  []string{"result_id"},
		ForeignKeys: []ForeignKey{{Column: "result_id", RefTable: "performance_result", RefColumn: "id"}},
	}
	p.both("create result_histogram", func(eng Engine) error { return eng.CreateTable(histogram) })
	tables := append([]string{"metric", "result_histogram"}, segmentHotTables...)

	steps := map[string]int{}
	var phase string
	var hand func() // the script's hand inside a pass: runs once, after the next step named handAt
	var handAt string
	st.step = func(step string) {
		steps[step]++
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
		p.crashCheck(phase+": after "+step, tables)
	}
	pass := func() {
		t.Helper()
		st.compactMu.Lock()
		defer st.compactMu.Unlock()
		if err := st.drain(false); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	// write applies op to both engines; on the durable one it is
	// acknowledged — a delete waits in its log's buffer for the next
	// commit, so Stats flushes it — and a crash at any later step must
	// keep it.
	write := func(what string, op func(Engine) error) {
		t.Helper()
		phase = what
		p.both(what, op)
		p.fe.Stats()
	}
	// load is a document's commit: one transaction, a metric row in
	// perftrack.wal and results, foci and closure links in the tail logs —
	// links descending within a result, as loadResults makes them.
	next := 0
	load := func(n int) {
		t.Helper()
		first := next
		next += n
		write(fmt.Sprintf("load of results %d..%d", first, next-1), func(eng Engine) error {
			tx := eng.Begin()
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
	write("histogram of a private result", func(eng Engine) error {
		tx := eng.Begin()
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
	if err := p.both("histogram of no result", func(eng Engine) error {
		_, err := eng.Insert("result_histogram", Row{Int(1 << 30), Str("")})
		return err
	}); err == nil {
		t.Fatal("a histogram of a result nobody has was accepted")
	}
	p.both("create index", func(eng Engine) error {
		return eng.CreateIndex("performance_result", IndexSpec{Name: "pr_tool", Columns: []string{"tool_id"}})
	})
	write("rolled-back transaction", func(eng Engine) error {
		tx := eng.Begin()
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

	// Rule 2. performance_result is sealed and waits for a pass;
	// focus_has_resource has flushed rows and an unflushed tail, which a
	// committed delete of a flushed row folds into a row set: no commit
	// re-seals it before the pass writes its manifest.
	load(30)
	if !sealed("performance_result") || hotStatus(t, p.fe, "focus_has_resource").LogFiles == 0 {
		t.Fatalf("set-up: performance_result sealed = %v, focus_has_resource = %+v",
			sealed("performance_result"), hotStatus(t, p.fe, "focus_has_resource"))
	}
	write("pass after a delete rehydrated focus_has_resource", func(eng Engine) error {
		return eng.Delete("focus_has_resource", 5)
	})
	if st := hotStatus(t, p.fe, "focus_has_resource"); !st.Dirty {
		t.Fatalf("focus_has_resource after the delete = %+v, want rehydrated", st)
	}
	pass()
	write("delete of a flushed row", func(eng Engine) error { return eng.Delete("performance_result", 17) })
	pass()

	// Rule 1, the late half. A delete of a sealed row while its set is being
	// encoded rehydrates the table: the pass discards its segment, and the
	// set's logs — which the barrier skipped as doomed — outlive it.
	lastResult := func() (last int64) {
		results, _ := p.mem.Table("performance_result")
		results.Scan(func(id int64, _ Row) bool { last = id; return true })
		return last
	}
	load(70)
	if !sealed("performance_result") {
		t.Fatal("set-up: performance_result is not sealed")
	}
	handAt, hand = "barrier", func() {
		p.both("delete of a sealed row", func(eng Engine) error { return eng.Delete("performance_result", lastResult()) })
		p.fe.Stats()
	}
	phase = "pass whose sealed set is rehydrated under it"
	pass()
	if hand != nil || hotStatus(t, p.fe, "performance_result").PendingRows != 0 {
		t.Fatalf("the pass did not run the delete, or left %+v", hotStatus(t, p.fe, "performance_result"))
	}

	// Rule 3. A commit that lands between a checkpoint's drain and its
	// snapshot — here, once the drain's one pass is done — has its rows
	// snapshotted.
	load(10)
	phase = "checkpoint with a commit after its drain"
	handAt, hand = "log removal", func() {
		first := next
		next += 20
		p.both("late load", func(eng Engine) error { return commitResults(eng, first, 20) })
	}
	if err := p.fe.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if counts := countSnapshotRows(t, filepath.Join(p.dir, snapshotFile)); hand != nil || counts["performance_result"] != 20 {
		t.Fatalf("the snapshot holds %d performance_result rows, want the late commit's 20", counts["performance_result"])
	}
	pass()
	victim := lastResult() // the late commit's last result
	// The delete rehydrates performance_result — the victim is in its tail —
	// and the next commit re-seals it, without the victim.
	write("delete of a snapshotted row", func(eng Engine) error { return eng.Delete("performance_result", victim) })
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
	if logs := tailLogsOnDisk(t, p.dir); len(logs) != 0 {
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
	for _, m := range logRecords(t, filepath.Join(p.dir, walFile)) {
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
		for _, seq := range tailLogsOnDisk(t, p.dir)[status.Table] {
			if seq < status.LowWater {
				t.Fatalf("tail log %d of %s is below the low-water mark %d", seq, status.Table, status.LowWater)
			}
			for _, m := range logRecords(t, st.tailLogPath(status.Table, seq)) {
				if m.op != opInsert || m.table != status.Table || logged[m.id] {
					t.Fatalf("tail log %d of %s holds op %d on row %d of %s", seq, status.Table, m.op, m.id, m.table)
				}
				logged[m.id] = true
			}
		}
		tab, _ := p.fe.Table(status.Table)
		held := map[int64]bool{}
		for _, tail := range tab.tailsLocked() {
			for _, id := range tail.rowIDs {
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
	if wal, _ := os.Stat(filepath.Join(p.dir, walFile)); before.WALBytes != wal.Size()+logBytes {
		t.Fatalf("wal_bytes = %d, want perftrack.wal's %d + the tail logs' %d", before.WALBytes, wal.Size(), logBytes)
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
