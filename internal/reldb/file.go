package reldb

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// logBufBytes is how many bytes of DDL records the log buffers before it
// writes them out without waiting for a commit.
const logBufBytes = 64 << 10

// logFile is one file of the commit log, segments/log-<seq>.log. The
// newest takes records; an older one holds groups a manifest still needs
// until a pass's manifest names a newer low-water file. Records wait in
// buf until a flush writes them. Guarded by the engine lock, except that
// f may be fsynced outside it.
type logFile struct {
	path   string
	seq    int64
	f      File   // nil for an older file recovery replayed: it is only read
	buf    []byte // framed records not yet written to f
	size   int64  // bytes appended: f's and buf's
	synced int64  // leading bytes known to be fsynced
}

// openLog creates log file seq at path, or opens it for appending.
func openLog(fsys FS, path string, seq int64) (*logFile, error) {
	f, err := fsys.Append(path)
	if err != nil {
		return nil, err
	}
	return &logFile{path: path, seq: seq, f: f}, nil
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

// logMark is a log file and how many bytes it held when the mark was
// taken.
type logMark struct {
	l    *logFile
	size int64
}

// discardLogs closes and deletes log files no manifest needs any more.
// Deletion is best effort: the next open deletes what lies below the
// low-water file.
func (db *DB) discardLogs(logs []*logFile) {
	for _, l := range logs {
		if l.f != nil {
			l.f.Close()
		}
		db.fsys.Remove(l.path)
	}
}

func (db *DB) logPath(seq int64) string {
	return filepath.Join(db.seg.dir, fmt.Sprintf("log-%08d.log", seq))
}

// parseLogName undoes logPath on a file's base name.
func parseLogName(base string) (seq int64, ok bool) {
	digits, ok := strings.CutPrefix(base, "log-")
	if digits, ok = strings.CutSuffix(digits, ".log"); !ok {
		return 0, false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	return seq, err == nil
}

// ErrFormat is what an open returns for a directory this program did not
// write: one whose manifest states another version, or one that holds
// the engine's files but no manifest. Nothing in it is touched. The
// directory's PTdf is the way forward: PTdf is the interchange format,
// and every store is built from it.
var ErrFormat = errors.New("reldb: the store is not in this program's format; re-load it from PTdf")

// open opens (or creates) the store rooted at dir of fsys. A directory
// opens at the current manifest version or not at all (segState.load).
// Recovery reads the manifest's segments, then replays the log from the
// low-water file the manifest names (replayLogs): the schema first,
// attaching each table's segments as the table is created without
// inserting a row, then the rows no segment holds.
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
	if err := db.replayLogs(); err != nil {
		return nil, err
	}
	// The segments directory may be new: its entry must be durable before
	// a commit counts on it. The manifest's write makes the log file's
	// entry durable.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	db.replaying = false
	// The manifest — a fresh store's first — is written before orphan
	// cleanup, so that it never names a deleted file.
	m, garbage := db.seg.manifestLocked(db.seg.low)
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
// holds any of the engine's files: a file an older program wrote beside
// segments/ (perftrack.*), a tail log, a segment file or a log file with
// records. An empty log file is what an open that crashed before its
// first manifest leaves; such a directory, like one that does not exist
// yet, is fresh.
func (db *DB) checkFresh() error {
	stale := false
	for _, dir := range []string{db.dir, db.seg.dir} {
		names, err := db.fsys.ReadDir(dir)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("reldb: open %s: %w", dir, err)
		}
		for _, name := range names {
			if _, isLog := parseLogName(name); isLog {
				size, err := db.fsys.Size(filepath.Join(dir, name))
				stale = stale || err != nil || size > 0
			}
			stale = stale || strings.HasPrefix(name, "perftrack.") || strings.HasPrefix(name, "tail-") || strings.HasSuffix(name, ".seg")
		}
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

// SetSync controls whether a commit, and a DDL statement, fsyncs the log.
// Synchronous mode is durable against power loss but slower — a commit
// is one write and one fsync, whatever tables it writes — and it is off by
// default, matching a DBMS with commit batching.
func (db *DB) SetSync(sync bool) { db.syncWAL = sync }

// logLocked appends one DDL statement, applied in place, to the log as a
// group of its own. In the default asynchronous mode the record waits in
// the log's buffer for the next commit, pass, close or size query to
// write it (or for the buffer to fill); synchronous mode writes and
// fsyncs it at once. A record that fails leaves the log as it was.
// Recovery logs nothing. Called with the engine write lock held.
func (db *DB) logLocked(m *mutation) error {
	if err := db.writableLocked(); err != nil || db.replaying {
		return err
	}
	l := db.log
	mark := l.size
	l.append(encodeMutationPayload(m))
	var err error
	if db.syncWAL {
		err = l.sync()
	} else if len(l.buf) >= logBufBytes {
		err = l.flush()
	}
	if err != nil {
		return db.rewindLocked(err, mark)
	}
	db.logAppended += uint64(l.size - mark)
	return nil
}

// rewindLocked undoes what a failed write — err is its failure — appended
// to the log, by taking it back to mark. If that fails too, the log holds
// bytes of a write that did not happen, and the engine refuses every
// later write; so it does after a failed fsync (refuseLocked).
func (db *DB) rewindLocked(err error, mark int64) error {
	if rerr := db.log.rewind(mark); rerr != nil {
		db.refused = fmt.Errorf("%w: %w (undoing it: %v)", ErrRefused, err, rerr)
		return db.refused
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

// liveLogsLocked returns every log file the engine has, oldest first
// (none before the open got that far).
func (db *DB) liveLogsLocked() []*logFile {
	if db.log == nil {
		return nil
	}
	return append(slices.Clone(db.oldLogs), db.log)
}

// rotateLocked starts a new log file; the last one takes no more records.
// The new file's first group, the carry, is what the log must hold once a
// manifest names segments for every block outside the active tails — the
// blocks the pass that rotates writes: a record naming the file it
// continues and that file's length, the schema (one CREATE TABLE per
// table, indexes included), and the rows of every active tail as block
// records. In synchronous mode the old file's bytes and the new file's
// entry are made durable before a commit can count on them.
func (db *DB) rotateLocked() error {
	old, st := db.log, db.seg
	if err := old.flush(); err != nil {
		return err
	}
	if db.syncWAL {
		if err := old.sync(); err != nil {
			return db.refuseLocked(err)
		}
	}
	buf := appendRecord(nil, encodeMutationPayload(&mutation{op: opRotate, more: true, seq: old.seq, size: old.size}))
	for _, t := range db.order {
		buf = appendRecord(buf, encodeMutationPayload(&mutation{op: opCreateTable, more: true, schema: t.schema}))
	}
	for _, t := range db.order {
		buf = appendBlockRecords(buf, t.schema.Name, &t.tail.ColumnBlock)
	}
	endGroup(buf, 0)
	seq := st.nextLog
	st.nextLog++
	l, err := openLog(db.fsys, db.logPath(seq), seq)
	if err != nil {
		return fmt.Errorf("reldb: open log: %w", err)
	}
	l.appendFramed(buf)
	err = l.flush()
	if err == nil && db.syncWAL {
		err = synced(db.fsys.SyncDir(st.dir))
	}
	if err != nil {
		db.discardLogs([]*logFile{l})
		return db.refuseLocked(err)
	}
	db.oldLogs, db.log = append(db.oldLogs, old), l
	db.logAppended += uint64(len(buf))
	return nil
}

// replayLogs ends recovery. It replays the log files from the low-water
// one in order, each group whole or not at all (replayFile). A file after
// the low-water one continues the log only if its first record names the
// file before it and that file's whole length; its first group, the
// carry, is then not applied — the file before holds those rows, and the
// segments that complement the carry are ones no durable manifest names.
// A torn group ends the log: that file is truncated to its last whole
// group, and no later file continues it. Files below the low-water one and
// files that do not continue the log are deleted, once nothing is left to
// refuse the open; the last file replayed takes the next records.
func (db *DB) replayLogs() error {
	st := db.seg
	names, err := db.fsys.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("reldb: open %s: %w", st.dir, err)
	}
	var chain []*logFile
	var drop []string
	prev := &logFile{seq: st.low} // what a file after a missing low-water one would have to continue
	for _, name := range names {
		seq, ok := parseLogName(name)
		if !ok {
			continue
		}
		st.nextLog = max(st.nextLog, seq+1)
		l := &logFile{path: filepath.Join(st.dir, name), seq: seq}
		if seq == st.low {
			prev = nil
		}
		if seq < st.low {
			ok = false
		} else if ok, err = db.replayFile(l, prev); err != nil {
			return err
		}
		if !ok {
			drop = append(drop, l.path)
			continue
		}
		l.synced = l.size
		chain, prev = append(chain, l), l
	}
	for name := range st.loaded {
		return fmt.Errorf("%w: the manifest names segments of table %q, which the log never creates", ErrCorruptLog, name)
	}
	if len(chain) == 0 {
		chain = append(chain, &logFile{path: db.logPath(st.low), seq: st.low})
		st.nextLog = max(st.nextLog, st.low+1)
	}
	last := chain[len(chain)-1]
	size, err := db.fsys.Size(last.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("reldb: open log: %w", err)
	}
	if size > last.size {
		if err := db.fsys.Truncate(last.path, last.size); err != nil {
			return fmt.Errorf("reldb: truncate torn log: %w", err)
		}
	}
	if last.f, err = db.fsys.Append(last.path); err != nil {
		return fmt.Errorf("reldb: open log: %w", err)
	}
	db.log, db.oldLogs = last, chain[:len(chain)-1]
	for _, path := range drop {
		db.fsys.Remove(path) // best effort: the next open drops a file left again
	}
	return nil
}

// replayFile applies the groups of log file l and sets l.size to the
// bytes they take; it reports whether l continues the log after prev (nil
// for the low-water file, which continues nothing), whose first group it
// then skips.
func (db *DB) replayFile(l, prev *logFile) (bool, error) {
	f, err := db.fsys.Open(l.path)
	if err != nil {
		return false, fmt.Errorf("reldb: open log: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	for first := true; ; first = false {
		group, n, err := readGroup(rr)
		if err == io.EOF {
			return !first || prev == nil, nil
		}
		if err != nil {
			return false, fmt.Errorf("%w (%s)", err, l.path)
		}
		if first && prev != nil {
			if m := group[0]; m.op != opRotate || m.seq != prev.seq || m.size != prev.size {
				return false, nil
			}
		} else if err := db.applyGroup(group); err != nil {
			return false, fmt.Errorf("%w (%s)", err, l.path)
		}
		l.size += n
	}
}

// readGroup reads the next group of records and the bytes it takes.
// io.EOF marks the end of the log: a clean one, or a group it cuts short.
func readGroup(rr *recordReader) (group []*mutation, n int64, err error) {
	for {
		payload, err := rr.readRecord()
		if err == io.EOF || errors.Is(err, ErrCorruptLog) {
			return nil, 0, io.EOF
		}
		if err != nil {
			return nil, 0, err
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			return nil, 0, err
		}
		group, n = append(group, m), n+int64(len(payload))+8
		if !m.more {
			return group, n, nil
		}
	}
}

// applyGroup reproduces a group of logged mutations during recovery (no
// re-logging). A run of deletes from one table — a commit's — replaces
// each block it touches once, as the commit did. Replay starts where the
// manifest's segments end, so a row a table already holds, or a delete of
// one it does not, is corruption.
func (db *DB) applyGroup(group []*mutation) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := 0; i < len(group); i++ {
		m := group[i]
		t := db.tables[m.table]
		if t == nil && m.op != opCreateTable && m.op != opRotate {
			return fmt.Errorf("%w: no table %q", ErrCorruptLog, m.table)
		}
		var err error
		switch m.op {
		case opCreateTable:
			err = db.createTableLocked(m.schema)
		case opCreateIndex:
			err = db.createIndexLocked(m.table, m.index)
		case opDropIndex:
			err = db.dropIndexLocked(m.table, m.index.Name)
		case opDelete:
			ids := []int64{m.id}
			for ; i+1 < len(group) && group[i+1].op == opDelete && group[i+1].table == m.table; i++ {
				ids = append(ids, group[i+1].id)
			}
			err = t.replayDeletesLocked(ids)
		case opInsertBlock:
			err = t.replayBlockLocked(m.block)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayBlockLocked appends the rows of a replayed block record to the
// table's tail.
func (t *Table) replayBlockLocked(b *ColumnBlock) error {
	if !b.matches(t.schema) {
		return fmt.Errorf("%w: a block record's columns are not those of table %q", ErrCorruptLog, t.schema.Name)
	}
	var slab []Value
	for i := 0; i < b.rows; i++ {
		if err := t.insertAtLocked(b.rowIDs.At(i), b.Row(i, &slab)); err != nil {
			return fmt.Errorf("%w: %w", ErrCorruptLog, err)
		}
	}
	t.db.replayedRows += b.rows
	return nil
}

// replayDeletesLocked deletes the rows of a replayed run of delete
// records.
func (t *Table) replayDeletesLocked(ids []int64) error {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for _, id := range ids {
		if _, ok := t.findIDLocked(id); !ok {
			return fmt.Errorf("%w: table %q: delete of row %d, which it does not hold", ErrCorruptLog, t.schema.Name, id)
		}
	}
	t.deleteLocked(ids)
	t.db.replayedRows += len(ids)
	return nil
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
// then runs one more pass, which rotates the log whether or not a block
// waits: the log then holds the schema and the rows committed after the
// seal alone.
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
	_, err = st.pass(false, true)
	return err
}

// DiskSize reports the total bytes of the engine's files (log and
// segment files), flushing buffered log records first so the figure is
// accurate.
func (db *DB) DiskSize() (int64, error) {
	s, err := db.stats()
	return s.DiskBytes, err
}

// Stats returns row counts and data volume, and the footprint of the
// engine's files: the live log files (WALBytes) and segment files. When
// the log cannot be flushed its size in the file is stale, so WALBytes
// (and with it DiskBytes) stays at the last good value and the failure is
// counted in FlushErrors.
func (db *DB) Stats() Stats {
	s, _ := db.stats()
	return s
}

func (db *DB) stats() (Stats, error) {
	db.mu.RLock()
	s := db.tableStatsLocked()
	db.mu.RUnlock()
	db.mu.Lock()
	err := db.log.flush()
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

// closeLogs releases every log file's handle without flushing.
func (db *DB) closeLogs() error {
	var err error
	for _, l := range db.liveLogsLocked() {
		if l.f != nil {
			err = errors.Join(err, l.f.Close())
		}
	}
	return err
}

// Close stops the compactor, flushes and fsyncs the log, and releases its
// file handles — always, whatever failed before; it returns every
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
		if l.f != nil {
			err = errors.Join(err, l.sync())
		}
	}
	db.refused = errClosed
	return errors.Join(err, db.closeLogs())
}
