package reldb

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"strings"
)

const (
	walFile = "perftrack.wal"
	// logBufBytes is how many bytes of DDL records a log buffers
	// before it writes them out without waiting for a commit.
	logBufBytes = 64 << 10
)

// logFile is one append-only record log: perftrack.wal, or a numbered
// tail log of one table (segments/tail-<table>-<seq>.log), owned by
// the tail whose rows it holds. Records wait in buf until a
// flush writes them. Guarded by the engine lock, except that f may be
// fsynced outside it.
type logFile struct {
	path     string
	seq      int64 // tail logs: the file's place in its table's replay order
	f        File
	buf      []byte // framed records not yet written to f
	size     int64  // bytes appended: f's and buf's
	synced   int64  // leading bytes known to be fsynced
	finished bool   // takes no more records: it travels with a sealed tail and holds exactly what its file holds
}

// openLog opens path for appending, creating it if need be; size is what
// the file already holds.
func openLog(fsys FS, path string, seq, size int64) (*logFile, error) {
	f, err := fsys.Append(path)
	if err != nil {
		return nil, err
	}
	return &logFile{path: path, seq: seq, f: f, size: size}, nil
}

func (l *logFile) append(payload []byte) {
	l.buf = appendRecord(l.buf, payload)
	l.size += int64(len(payload)) + 8
}

// appendFramed appends records that already carry their frames.
func (l *logFile) appendFramed(records []byte) {
	l.buf = append(l.buf, records...)
	l.size += int64(len(records))
}

// flush writes the buffered records to the file. Whatever a failed write
// did not get into the file stays buffered, so file and buffer still hold
// the log's records in order.
func (l *logFile) flush() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err != nil {
		l.buf = l.buf[:copy(l.buf, l.buf[n:])]
		return err
	}
	if cap(l.buf) > logBufBytes {
		l.buf = nil // a large commit's records: the log does not keep their room
	} else {
		l.buf = l.buf[:0]
	}
	return nil
}

// sync flushes the log and fsyncs it if it has bytes no fsync covers.
func (l *logFile) sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	if l.size > l.synced {
		if err := synced(l.f.Sync()); err != nil {
			return err
		}
		l.synced = l.size
	}
	return nil
}

// finish flushes the log and stops it taking records: it now travels
// with a sealed tail and holds exactly what its file holds.
func (l *logFile) finish() error {
	if err := l.flush(); err != nil {
		return err
	}
	l.finished = true
	return nil
}

// rewind takes the log back to its first mark bytes, dropping the records
// a failed write appended past them — from the buffer, and from the file
// where they reached it, which is then fsynced so that no disk keeps them.
func (l *logFile) rewind(mark int64) error {
	written := l.size - int64(len(l.buf))
	if written <= mark {
		l.buf = l.buf[:mark-written]
	} else {
		if err := l.f.Truncate(mark); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.buf, l.synced = l.buf[:0], mark
	}
	l.size = mark
	return nil
}

// logMark is a log and how many bytes it held when the mark was taken.
type logMark struct {
	l    *logFile
	size int64
}

// discardLogs closes and deletes logs whose records are durable elsewhere
// and returns how many bytes went. Deletion is best effort: the next open
// deletes what lies below a low-water mark.
func (db *DB) discardLogs(logs []*logFile) (bytes uint64) {
	for _, l := range logs {
		bytes += uint64(l.size)
		l.f.Close()
		db.fsys.Remove(l.path)
	}
	return bytes
}

// ErrFormat is what an open returns for a directory this program did not
// write: one whose manifest states another version, or one that holds
// the engine's files but no manifest. Nothing in it is touched. The
// directory's PTdf is the way forward: PTdf is the interchange format,
// and every store is built from it.
var ErrFormat = errors.New("reldb: the store is not in this program's format; re-load it from PTdf")

// open opens (or creates) the store rooted at dir of fsys. A directory
// opens at the current manifest version or not at all (segState.load).
// Recovery reads the manifest's segments, then perftrack.wal — the
// schema — attaching each table's segments as the table is created,
// without inserting a row, then each table's tail logs at or above its
// low-water mark in sequence order (the ones below it are deleted
// unread: a segment the manifest names holds their rows). An insert a
// segment already serves is a no-op, and a run of deletes — a commit's,
// of one table — replaces each block it touches once, exactly as the
// commit did (the log is truth).
func open(fsys FS, kind, dir string) (_ *DB, err error) {
	db := &DB{tables: make(map[string]*Table), fsys: fsys, kind: kind, dir: dir, replaying: true}
	db.seg = newSegState(db)
	defer func() {
		if err != nil {
			db.closeLogs()
		}
	}()
	if err := db.seg.load(); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(db.seg.dir); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	walBytes, err := db.replayLog(db.walPath(), func(m *mutation) error {
		if m.isRowOp() {
			return fmt.Errorf("%w: %s holds op %d on %q", ErrCorruptLog, walFile, m.op, m.table)
		}
		return db.apply(m)
	})
	if err != nil {
		return nil, err
	}
	if err := db.seg.replayTailLogs(); err != nil {
		return nil, err
	}
	db.seg.loaded, db.seg.loadedLow = nil, nil
	if db.wal, err = openLog(fsys, db.walPath(), 0, walBytes); err != nil {
		return nil, fmt.Errorf("reldb: open WAL: %w", err)
	}
	// perftrack.wal and the segments directory may be new: their entries
	// must be durable before a commit counts on them.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	db.replaying = false
	// Resync the manifest with post-replay state (a replayed DROP TABLE or
	// delete may have retired segments) before orphan cleanup, so the
	// manifest never references a deleted file.
	m, garbage := db.seg.manifestLocked()
	if err := db.seg.writeManifest(m, garbage); err != nil {
		return nil, err
	}
	db.seg.cleanOrphans(m)
	go db.seg.run()
	// A tail that replay left at or above the threshold drains now, not
	// at the next commit.
	db.mu.Lock()
	db.seg.sealReadyLocked(db.seg.flushRows.Load())
	db.mu.Unlock()
	return db, nil
}

// checkFresh refuses, as version 0, a directory without a manifest that
// holds any of the engine's files: perftrack.snap (which only an older
// program wrote), a perftrack.wal with records, a tail log or a segment
// file. An empty perftrack.wal is what an open that crashed before its
// first manifest leaves; such a directory, like one that does not exist
// yet, is fresh.
func (db *DB) checkFresh() error {
	_, err := db.fsys.Size(filepath.Join(db.dir, "perftrack.snap"))
	stale := !errors.Is(err, fs.ErrNotExist)
	if size, err := db.fsys.Size(db.walPath()); err == nil && size > 0 {
		stale = true
	}
	names, err := db.fsys.ReadDir(db.seg.dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("reldb: open %s: %w", db.seg.dir, err)
	}
	for _, name := range names {
		stale = stale || strings.HasPrefix(name, "tail-") || strings.HasSuffix(name, ".seg")
	}
	if stale {
		return db.formatError(0)
	}
	return nil
}

// formatError is ErrFormat for a directory at the given version (0: one
// without a manifest).
func (db *DB) formatError(version uint64) error {
	return fmt.Errorf("%w (%s holds version %d; this program reads version %d only)", ErrFormat, cmp.Or(db.dir, "."), version, manifestVersion)
}

// SetSync controls whether a commit fsyncs the logs it touched (and a
// DDL statement its log). Synchronous mode is durable against power loss
// but much slower — a commit fsyncs the tail log of each table it writes,
// one after another in the flush order: ten for a typical document — and
// it is off by default, matching a DBMS with commit batching.
func (db *DB) SetSync(sync bool) { db.syncWAL = sync }

func (db *DB) walPath() string { return filepath.Join(db.dir, walFile) }

// isRowOp reports whether the mutation changes a row, not the schema.
func (m *mutation) isRowOp() bool {
	return m.op == opDelete || m.op == opInsertBlock
}

// logLocked appends one DDL statement, applied in place, to
// perftrack.wal. In the default asynchronous mode the record waits in the
// log's buffer for the next commit, checkpoint, close or size query to
// write it (or for the buffer to fill); synchronous mode writes and
// fsyncs it at once. A record that fails leaves the log as it was.
// Recovery logs nothing. Called with the engine write lock held.
func (db *DB) logLocked(m *mutation) error {
	if err := db.writableLocked(); err != nil || db.replaying {
		return err
	}
	l := db.wal
	mark := logMark{l, l.size}
	l.append(encodeMutationPayload(m))
	var err error
	if db.syncWAL {
		err = l.sync()
	} else if len(l.buf) >= logBufBytes {
		err = l.flush()
	}
	if err != nil {
		return db.rewindLocked(err, []logMark{mark})
	}
	db.logAppended += uint64(l.size - mark.size)
	return nil
}

// rewindLocked undoes what a failed write — err is its failure — appended
// to the logs, by taking each back to its mark, latest first. If that
// fails too, a log holds bytes of a write that did not happen, and the
// engine refuses every later write; so it does after a failed fsync
// (refuseLocked).
func (db *DB) rewindLocked(err error, marks []logMark) error {
	for i := len(marks) - 1; i >= 0; i-- {
		if rerr := marks[i].l.rewind(marks[i].size); rerr != nil {
			db.refused = fmt.Errorf("%w: %w (undoing it: %v)", ErrRefused, err, rerr)
			return db.refused
		}
	}
	return db.refuseLocked(err)
}

// errSync marks a failed fsync. After one, what the file holds on disk is
// unknown — the kernel may have dropped the pages it could not write, and
// a retry can report success over them — so the engine takes no more
// writes until it is reopened and recovery reads what is really there.
var errSync = errors.New("fsync failed")

// synced marks the error of an fsync with errSync.
func synced(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %w", errSync, err)
	}
	return nil
}

// refuseLocked returns err, after making the engine refuse every later
// write if err is a failed fsync.
func (db *DB) refuseLocked(err error) error {
	if !errors.Is(err, errSync) {
		return err
	}
	if db.refused == nil {
		db.refused = fmt.Errorf("%w: %w", ErrRefused, err)
	}
	return db.refused
}

// refuse is refuseLocked for a caller without the engine lock.
func (db *DB) refuse(err error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.refuseLocked(err)
}

// openLogsLocked returns the logs still taking records in the order a
// commit flushes them (rule 3): perftrack.wal, then the tables' tail
// logs, parents before children, so that a process killed between two
// flushes leaves foci and results without their links rather than links
// without what they name.
func (db *DB) openLogsLocked() []*logFile {
	logs := []*logFile{db.wal}
	for _, t := range db.order {
		if n := len(t.tail.logs); n > 0 && !t.tail.logs[n-1].finished {
			logs = append(logs, t.tail.logs[n-1])
		}
	}
	return logs
}

// tailLogsLocked returns the tail logs the tables' unflushed rows own.
func (db *DB) tailLogsLocked() []*logFile {
	var logs []*logFile
	for _, t := range db.order {
		logs = append(logs, t.logsLocked()...)
	}
	return logs
}

// liveLogsLocked returns every log file the engine has: the tail logs
// unflushed rows own, the ones a compaction pass is about to delete, and
// perftrack.wal (once the open got that far).
func (db *DB) liveLogsLocked() []*logFile {
	logs := append(db.tailLogsLocked(), db.seg.retired...)
	if db.wal != nil {
		logs = append(logs, db.wal)
	}
	return logs
}

// apply reproduces a logged mutation during recovery (no re-logging). A
// delete is held back with the ones after it that delete from the same
// table — a commit's — and applied with them (applyDeletesLocked).
func (db *DB) apply(m *mutation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if m.op != opDelete || m.table != db.replayDel.table {
		if err := db.applyDeletesLocked(); err != nil {
			return err
		}
	}
	switch m.op {
	case opDelete:
		db.replayDel.table, db.replayDel.ids = m.table, append(db.replayDel.ids, m.id)
		return nil
	case opCreateTable:
		return db.createTableLocked(m.schema)
	case opDropTable:
		db.dropTableLocked(m.table)
		delete(db.seg.loaded, m.table) // the rows the manifest's segments held died with the table
		return nil
	case opCreateIndex:
		return db.createIndexLocked(m.table, m.index)
	case opDropIndex:
		return db.dropIndexLocked(m.table, m.index.Name)
	}
	t, ok := db.tables[m.table]
	if !ok {
		return fmt.Errorf("reldb: recovery: no table %q", m.table)
	}
	if !m.block.matches(t.schema) {
		return fmt.Errorf("%w: a block record's columns are not those of table %q", ErrCorruptLog, m.table)
	}
	var slab []Value
	for i := 0; i < m.block.rows; i++ {
		if err := t.replayRowLocked(m.block.rowIDs.At(i), m.block.Row(i, &slab)); err != nil {
			return err
		}
	}
	return nil
}

// replayRowLocked puts a row of a replayed block record in place. A row
// a segment already serves — a log outlives the crash window between a
// pass's manifest and the removal of the logs it superseded — is an
// idempotent no-op when the images are equal, which keeps a flushed row
// flushed; on divergence the log wins.
func (t *Table) replayRowLocked(id int64, row Row) error {
	ref, exists := t.findIDLocked(id)
	if !exists {
		return t.insertAtLocked(id, row)
	}
	if rowsEqual(ref.clone(), row) {
		return nil
	}
	return t.updateLocked(id, row)
}

// applyDeletesLocked applies the run of replayed deletes apply held back,
// all of one table. A row that is not there is one whose delete a
// replacement segment the manifest names already holds.
func (db *DB) applyDeletesLocked() error {
	d := &db.replayDel
	if len(d.ids) == 0 {
		return nil
	}
	t, ok := db.tables[d.table]
	if !ok {
		return fmt.Errorf("reldb: recovery: no table %q", d.table)
	}
	slices.Sort(d.ids)
	t.deleteLocked(slices.Compact(d.ids))
	d.table, d.ids = "", d.ids[:0]
	return nil
}

// rowsEqual reports bit-exact row equality (NaN-aware for floats). The
// replay path uses it to recognize an idempotent re-insert of a row a
// segment serves.
func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		va, vb := a[i], b[i]
		if va.Kind() != vb.Kind() {
			return false
		}
		switch va.Kind() {
		case KindInt:
			if va.Int64() != vb.Int64() {
				return false
			}
		case KindFloat:
			if math.Float64bits(va.Float64()) != math.Float64bits(vb.Float64()) {
				return false
			}
		case KindString:
			if va.Text() != vb.Text() {
				return false
			}
		case KindBool:
			if va.Truth() != vb.Truth() {
				return false
			}
		}
	}
	return true
}

// replayLog applies the records of the log at path in order and returns
// how many bytes of it are good. A run of block records that continue
// one another — a table's part of one commit — is applied once its last
// record is read, so a commit is all there or not at all. A torn tail — a
// crash mid-append — ends the log: the file is truncated to its last whole
// record, or to the start of a run it cuts short. A missing file is an
// empty log.
func (db *DB) replayLog(path string, apply func(*mutation) error) (good int64, err error) {
	f, err := db.fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reldb: open log: %w", err)
	}
	defer f.Close()
	end := func() (int64, error) {
		db.mu.Lock()
		defer db.mu.Unlock()
		return good, db.applyDeletesLocked()
	}
	rr := newRecordReader(f)
	var run []*mutation // read, not applied: the records of a run so far
	read := good
	for {
		payload, err := rr.readRecord()
		if err == io.EOF && len(run) == 0 {
			return end()
		}
		if err == io.EOF || errors.Is(err, ErrCorruptLog) {
			if terr := db.fsys.Truncate(path, good); terr != nil {
				return 0, fmt.Errorf("reldb: truncate torn log: %w", terr)
			}
			return end()
		}
		if err != nil {
			return 0, err
		}
		m, err := decodeMutationPayload(payload)
		if err == nil && len(run) > 0 && (m.op != opInsertBlock || m.table != run[0].table) {
			err = fmt.Errorf("%w: a run of block records of %q ends without its last", ErrCorruptLog, run[0].table)
		}
		if err != nil {
			return 0, fmt.Errorf("%w (%s)", err, path)
		}
		read += int64(len(payload)) + 8
		if run = append(run, m); m.more {
			continue
		}
		for _, m := range run {
			if err := apply(m); err != nil {
				return 0, fmt.Errorf("%w (%s)", err, path)
			}
		}
		run, good = run[:0], read
	}
}

// replaceFile durably replaces path with data (writeFile), then fsyncs
// the directory, without which a power loss can undo the rename while
// later writes survive.
func replaceFile(fsys FS, path string, data []byte) error {
	if err := writeFile(fsys, path, data); err != nil {
		return err
	}
	return synced(fsys.SyncDir(filepath.Dir(path)))
}

// Checkpoint seals every non-empty tail and drains them into segments,
// whose manifest the drain writes, then replaces perftrack.wal with the
// schema's DDL alone (rewriteWALLocked). Rows committed after the seal
// keep their tail logs.
func (db *DB) Checkpoint() error {
	st := db.seg
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	db.mu.RLock()
	err := db.writableLocked()
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := st.drain(true); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.rewriteWALLocked(); err != nil {
		return err
	}
	st.stepped("wal rewrite")
	return nil
}

// rewriteWALLocked replaces perftrack.wal — the DDL records since it was
// last rewritten — with one CREATE TABLE
// record per table, parents first, through replaceFile: temp file, fsync,
// rename, fsync the directory. Either file replays to the same schema.
func (db *DB) rewriteWALLocked() error {
	var buf []byte
	for _, t := range db.order {
		buf = appendRecord(buf, encodeMutationPayload(&mutation{op: opCreateTable, schema: t.schema}))
	}
	if err := replaceFile(db.fsys, db.walPath(), buf); err != nil {
		return db.refuseLocked(fmt.Errorf("reldb: rewrite %s: %w", db.walPath(), err))
	}
	l, err := openLog(db.fsys, db.walPath(), 0, int64(len(buf)))
	if err != nil {
		return db.refuseLocked(fmt.Errorf("reldb: open WAL: %w", err))
	}
	db.wal.f.Close()
	db.logTrimmed += uint64(db.wal.size)
	db.logAppended += uint64(len(buf))
	l.synced, db.wal = l.size, l
	return nil
}

// DiskSize reports the total bytes of the engine's files (logs and
// segment files), flushing buffered log records first so the figure is
// accurate.
func (db *DB) DiskSize() (int64, error) {
	s, err := db.stats()
	return s.DiskBytes, err
}

// Stats returns row counts and data volume, and the footprint of the
// engine's files: logs (perftrack.wal and every live tail log, as
// WALBytes) and segment files. When a log cannot be flushed its
// size in the file is stale, so WALBytes (and with it DiskBytes) stays at
// the last good value and the failure is counted in FlushErrors.
func (db *DB) Stats() Stats {
	s, _ := db.stats()
	return s
}

func (db *DB) stats() (Stats, error) {
	db.mu.RLock()
	s := db.tableStatsLocked()
	db.mu.RUnlock()
	db.mu.Lock()
	var err error
	for _, l := range db.openLogsLocked() {
		err = errors.Join(err, l.flush())
	}
	if err != nil {
		db.flushErrors++
	} else {
		db.logBytes = 0
		for _, l := range db.liveLogsLocked() {
			db.logBytes += l.size
		}
	}
	s.WALBytes, s.FlushErrors = db.logBytes, db.flushErrors
	db.mu.Unlock()
	s.DiskBytes = s.WALBytes + s.SegmentBytes
	return s, err
}

// closeLogs releases every log's file handle without flushing.
func (db *DB) closeLogs() error {
	var err error
	for _, l := range db.liveLogsLocked() {
		err = errors.Join(err, l.f.Close())
	}
	return err
}

// Close stops the compactor, flushes and fsyncs the logs, and releases
// their file handles — always, whatever failed before; it returns every
// failure. The tables stay readable; every later write fails.
func (db *DB) Close() error {
	db.seg.shutdown()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.refused == errClosed {
		return nil
	}
	var err error
	for _, l := range db.liveLogsLocked() {
		err = errors.Join(err, l.sync())
	}
	db.refused = errClosed
	return errors.Join(err, db.closeLogs())
}
