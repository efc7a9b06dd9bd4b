package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// FileEngine is the durable storage engine: an in-memory DB whose
// mutations stream to write-ahead logs split by record lifetime, a
// background compactor that moves the hot tables' rows into columnar
// segments (compact.go), and snapshots written by Checkpoint. Records of
// the hot tables go to numbered per-table tail logs that are deleted as
// soon as a manifest names the segment holding their rows; everything
// else goes to perftrack.wal, which a checkpoint truncates. Opening a
// directory loads the latest snapshot, attaches the segments and replays
// perftrack.wal and then each table's tail logs, discarding a torn
// trailing record; a store that has compacted nothing yet is just
// snapshot + logs. It stands in for the persistent DBMS backends (Oracle,
// PostgreSQL) of the original PerfTrack prototype. Its DB.seg is never
// nil.
type FileEngine struct {
	*DB
	dir     string
	wal     *logFile // perftrack.wal: DDL and the records of every table that is not hot
	syncWAL bool     // fsync the logs a commit touched

	// Guarded by the engine lock.
	logBytes    int64  // bytes of all live logs at the last Stats call that could flush them
	flushErrors uint64 // Stats calls that could not
	logAppended uint64 // bytes ever appended to a log
	logTrimmed  uint64 // bytes of log deleted or truncated away
	replayedHot int    // hot-table records the open applied
}

const (
	snapshotFile = "perftrack.snap"
	walFile      = "perftrack.wal"
)

// logFile is one append-only record log: perftrack.wal, or a numbered
// tail log of one hot table (segments/tail-<table>-<seq>.log), owned by
// the tail (or row set) whose rows it holds. Guarded by the engine lock, except
// that f may be fsynced outside it.
type logFile struct {
	path   string
	seq    int64 // tail logs: the file's place in its table's replay order
	f      *os.File
	w      *recordWriter // nil once the log takes no more records
	size   int64         // bytes appended, buffered ones included
	synced int64         // leading bytes known to be fsynced
}

// openLog opens path for appending, creating it if need be; size is what
// the file already holds.
func openLog(path string, seq, size int64) (*logFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &logFile{path: path, seq: seq, f: f, w: newRecordWriter(f), size: size}, nil
}

func (l *logFile) append(payload []byte) error {
	l.size += int64(len(payload)) + 8
	return l.w.writeRecord(payload)
}

// appendFramed appends records that already carry their frames.
func (l *logFile) appendFramed(records []byte) error {
	l.size += int64(len(records))
	return l.w.writeFramed(records)
}

func (l *logFile) flush() error {
	if l.w == nil {
		return nil
	}
	return l.w.flush()
}

// sync flushes the log and fsyncs it if it has bytes no fsync covers.
func (l *logFile) sync() error {
	if err := l.flush(); err != nil {
		return err
	}
	if l.size > l.synced {
		if err := l.f.Sync(); err != nil {
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
	l.w = nil
	return nil
}

// discard closes and deletes a log whose records are durable elsewhere.
func (l *logFile) discard() {
	l.f.Close()
	os.Remove(l.path) // best effort: open-time cleanup deletes what falls below the low-water mark
}

// discardLogs discards every given log and returns how many bytes went.
func discardLogs(logs []*logFile) (bytes uint64) {
	for _, l := range logs {
		bytes += uint64(l.size)
		l.discard()
	}
	return bytes
}

// snapshot record tags
const (
	snapTagSchema byte = 1
	snapTagRow    byte = 2
)

// OpenFile opens (or creates) the durable database rooted at dir.
// Recovery order is snapshot (the rows no segment holds), then the
// manifest's segments, attached without inserting a row, then
// perftrack.wal, then each hot table's tail logs at or above its
// low-water mark in sequence order (the ones below it are deleted
// unread: a segment the manifest names holds their rows). An insert a
// segment already serves is a no-op and an update or delete of a flushed
// row rehydrates its table exactly as it would at run time (the log is
// truth).
func OpenFile(dir string) (_ *FileEngine, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	fe := &FileEngine{DB: NewMem(), dir: dir}
	fe.seg = newSegState(fe)
	defer func() {
		if err != nil {
			fe.closeLogs()
		}
	}()
	if err := fe.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := fe.seg.load(); err != nil {
		return nil, err
	}
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			// Rule 3: the snapshot holds rows of this table, so a delete of
			// one lives in the log alone until a checkpoint rewrites it.
			t.pinLogs = len(t.active.rows) > 0
			if err := fe.seg.attachLocked(t); err != nil {
				return nil, err
			}
		}
	}
	walBytes, err := fe.replayLog(fe.walPath(), func(m *mutation) error {
		if m.isRowOp() && isHotTable(m.table) {
			// A perftrack.wal written before hot tables had tail logs: its
			// rows pin the tail logs as the snapshot's do.
			if t := fe.tables[m.table]; t != nil {
				t.pinLogs = true
			}
			fe.replayedHot++
		}
		return fe.apply(m)
	})
	if err != nil {
		return nil, err
	}
	if err := fe.seg.replayTailLogs(); err != nil {
		return nil, err
	}
	fe.seg.loaded, fe.seg.loadedLow = nil, nil
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			t.columnarLocked() // a table replay rehydrated is row-resident again
		}
	}
	if fe.wal, err = openLog(fe.walPath(), 0, walBytes); err != nil {
		return nil, fmt.Errorf("reldb: open WAL: %w", err)
	}
	fe.DB.logger = fe
	// Resync the manifest with post-replay state (a replayed DROP TABLE
	// or rehydration may have retired segments) before orphan cleanup, so
	// the manifest never references a deleted file.
	m, garbage := fe.seg.manifestLocked()
	if err := fe.seg.writeManifest(m, garbage); err != nil {
		return nil, err
	}
	fe.seg.cleanOrphans(m.files)
	go fe.seg.run()
	// A tail that replay left at or above the threshold drains now, not
	// at the next commit.
	fe.mu.Lock()
	fe.seg.sealReadyLocked(fe.seg.flushRows.Load())
	fe.mu.Unlock()
	return fe, nil
}

// SetSync controls whether a commit fsyncs the logs it touched (and a
// DDL statement or delete its log). Synchronous mode is durable against
// power loss but much slower — a commit fsyncs each log it touched, up to
// seven — and it is off by default, matching a DBMS with commit batching.
func (fe *FileEngine) SetSync(sync bool) { fe.syncWAL = sync }

func (fe *FileEngine) snapPath() string { return filepath.Join(fe.dir, snapshotFile) }
func (fe *FileEngine) walPath() string  { return filepath.Join(fe.dir, walFile) }

// isRowOp reports whether the mutation changes a row, not the schema.
func (m *mutation) isRowOp() bool { return m.op == opInsert || m.op == opUpdate || m.op == opDelete }

// logMutation appends one mutation applied in place — DDL or a delete —
// to the log its lifetime picks: a row of a hot table to that table's
// tail log, everything else to perftrack.wal. Called with the DB write
// lock held. In the default asynchronous mode the record waits in the
// log's buffer for the next commit, checkpoint, close or size query to
// flush it; synchronous mode flushes and fsyncs it at once.
func (fe *FileEngine) logMutation(m *mutation) error {
	l := fe.wal
	if m.isRowOp() && isHotTable(m.table) {
		var err error
		if l, err = fe.seg.tailLogLocked(fe.tables[m.table]); err != nil {
			return err
		}
	}
	payload := encodeMutationPayload(m)
	if err := l.append(payload); err != nil {
		return err
	}
	fe.logAppended += uint64(len(payload)) + 8
	if fe.syncWAL {
		return l.sync()
	}
	return nil
}

// openLogsLocked returns the logs still taking records in the order a
// commit flushes them (rule 5): perftrack.wal, then the hot tables'
// tail logs, parents before children, so that a process killed between
// two flushes leaves foci and results without their links rather than
// links without what they name.
func (fe *FileEngine) openLogsLocked() []*logFile {
	logs := []*logFile{fe.wal}
	for _, name := range logFlushOrder {
		if t := fe.tables[name]; t != nil {
			if owned := *t.activeLogsLocked(); len(owned) > 0 && owned[len(owned)-1].w != nil {
				logs = append(logs, owned[len(owned)-1])
			}
		}
	}
	return logs
}

// tailLogsLocked returns the tail logs the hot tables' unflushed rows own.
func (fe *FileEngine) tailLogsLocked() []*logFile {
	var logs []*logFile
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			logs = append(logs, t.logsLocked()...)
		}
	}
	return logs
}

// liveLogsLocked returns every log file the engine has on disk: the
// tail logs unflushed rows own, the ones a compaction pass is about to delete,
// and perftrack.wal (once the open got that far).
func (fe *FileEngine) liveLogsLocked() []*logFile {
	logs := append(fe.tailLogsLocked(), fe.seg.retired...)
	if fe.wal != nil {
		logs = append(logs, fe.wal)
	}
	return logs
}

// apply reproduces a logged mutation during recovery (no re-logging).
func (fe *FileEngine) apply(m *mutation) error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	switch m.op {
	case opCreateTable:
		// A checkpoint that crashed between its snapshot and the truncation
		// leaves DDL the snapshot already reflects: a table or index that
		// exists as the record describes it is a no-op. Indexes are set
		// aside when tables are compared — the log's later CREATE and DROP
		// INDEX records are what made the snapshot's list.
		if t := fe.tables[m.schema.Name]; t != nil {
			have := *t.schema
			have.Indexes = m.schema.Indexes
			if bytes.Equal(encodeSchemaPayload(nil, &have), encodeSchemaPayload(nil, m.schema)) {
				return nil
			}
		}
		if err := fe.createTableLocked(m.schema, false); err != nil {
			return err
		}
		return fe.seg.attachLocked(fe.tables[m.schema.Name])
	case opDropTable:
		fe.dropTableLocked(m.table)
		delete(fe.seg.loaded, m.table) // the rows the manifest's segments held died with the table
		return nil
	case opCreateIndex:
		if t := fe.tables[m.table]; t != nil {
			if ix := t.active.indexes[m.index.Name]; ix != nil && ix.spec.Unique == m.index.Unique && slices.Equal(ix.spec.Columns, m.index.Columns) {
				return nil
			}
		}
		return fe.createIndexLocked(m.table, m.index, false)
	case opDropIndex:
		if t := fe.tables[m.table]; t != nil && t.active.indexes[m.index.Name] == nil {
			return nil // the snapshot is newer than this record and already lacks the index
		}
		return fe.dropIndexLocked(m.table, m.index.Name, false)
	}
	t, ok := fe.tables[m.table]
	if !ok {
		return fmt.Errorf("reldb: recovery: no table %q", m.table)
	}
	ref, exists := t.findIDLocked(m.id)
	switch m.op {
	case opInsert, opUpdate:
		if !exists {
			// For an update: the snapshot is newer than this record and
			// the row was later deleted-and-recreated; restoring the image
			// lets the remaining log replay onto the right state.
			_, err := t.insertAtLocked(m.id, m.row)
			return err
		}
		// The row was loaded from the snapshot or is served by a segment
		// (a log outlives a checkpoint's crash window, and one written
		// before hot tables had tail logs outlives compactions).
		// Equal images are an idempotent no-op, which keeps a flushed row
		// flushed; on divergence the log wins.
		if rowsEqual(ref.clone(), m.row) {
			return nil
		}
		_, err := t.updateLocked(m.id, m.row)
		return err
	case opDelete:
		if !exists {
			return nil // snapshot already reflects the delete
		}
		_, err := t.deleteLocked(m.id)
		return err
	default:
		return fmt.Errorf("%w: op %d", ErrCorruptLog, m.op)
	}
}

// rowsEqual reports bit-exact row equality (NaN-aware for floats). The
// replay path uses it to recognize an idempotent re-insert of a row that
// was preloaded from the snapshot or a segment.
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

func (fe *FileEngine) loadSnapshot() error {
	f, err := os.Open(fe.snapPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("reldb: open snapshot: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	var current string
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reldb: snapshot %s: %w", fe.snapPath(), err)
		}
		p := &payloadReader{buf: payload}
		tag, err := p.byteVal()
		if err != nil {
			return err
		}
		switch tag {
		case snapTagSchema:
			schema, err := decodeSchemaPayload(p)
			if err != nil {
				return err
			}
			fe.mu.Lock()
			err = fe.createTableLocked(schema, false)
			fe.mu.Unlock()
			if err != nil {
				return err
			}
			current = schema.Name
		case snapTagRow:
			id, err := p.varint()
			if err != nil {
				return err
			}
			row, err := decodeRowPayload(p)
			if err != nil {
				return err
			}
			fe.mu.Lock()
			t, ok := fe.tables[current]
			if !ok {
				fe.mu.Unlock()
				return fmt.Errorf("reldb: snapshot row before schema")
			}
			_, err = t.insertAtLocked(id, row)
			fe.mu.Unlock()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: snapshot tag %d", ErrCorruptLog, tag)
		}
	}
}

// replayLog applies the records of the log at path in order and returns
// how many bytes of it are good. A torn tail — a crash mid-append — ends
// the log: the file is truncated to its last whole record. A missing
// file is an empty log.
func (fe *FileEngine) replayLog(path string, apply func(*mutation) error) (good int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reldb: open log: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			return good, nil
		}
		if errors.Is(err, ErrCorruptLog) {
			if terr := os.Truncate(path, good); terr != nil {
				return 0, fmt.Errorf("reldb: truncate torn log: %w", terr)
			}
			return good, nil
		}
		if err != nil {
			return 0, err
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			return 0, fmt.Errorf("%w (%s)", err, path)
		}
		if err := apply(m); err != nil {
			return 0, fmt.Errorf("%w (%s)", err, path)
		}
		good += int64(len(payload)) + 8
	}
}

// replaceFile durably replaces path with the records write emits: temp
// file, fsync, rename over path, fsync the directory (without which a
// power loss can undo the rename while later writes survive). On error
// the temp file is removed and path keeps its old bytes.
func replaceFile(path string, write func(*recordWriter) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	rw := newRecordWriter(f)
	if err = write(rw); err != nil {
		return err
	}
	if err = rw.flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Checkpoint writes a snapshot atomically, truncates perftrack.wal and
// deletes every tail log. It first seals and drains every hot table's
// tail — lifting the row-resident hold on tables rehydrated for disorder
// — so the snapshot, which is simply every unflushed row, holds none of
// the rows that fsynced, manifest-listed segments already make durable: the
// checkpoint costs O(non-hot tables + whatever arrived during it), not a
// rewrite of the hot tables.
func (fe *FileEngine) Checkpoint() error {
	st := fe.seg
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	fe.mu.Lock()
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil && t.resident == residentUnordered {
			t.resident = 0
		}
	}
	fe.mu.Unlock()
	for {
		if err := st.drain(true); err != nil {
			return err
		}
		fe.mu.Lock()
		// A commit that sealed a set since the drain sends us round again:
		// a sealed set in the snapshot would be published as a segment too.
		if !slices.ContainsFunc(segmentHotTables, func(name string) bool {
			t := fe.tables[name]
			return t != nil && t.sealed != nil
		}) {
			break
		}
		fe.mu.Unlock()
	}
	defer fe.mu.Unlock()
	names := make([]string, 0, len(fe.tables))
	for name := range fe.tables {
		names = append(names, name)
	}
	sort.Strings(names) // stable order for reproducible snapshots
	err := replaceFile(fe.snapPath(), func(rw *recordWriter) error {
		for _, name := range names {
			t := fe.tables[name]
			payload := append([]byte{snapTagSchema}, encodeSchemaPayload(nil, t.schema)...)
			if err := rw.writeRecord(payload); err != nil {
				return err
			}
			var werr error
			write := func(id int64, row Row) bool {
				p := []byte{snapTagRow}
				p = putVarint(p, id)
				p = encodeRowPayload(p, row)
				werr = rw.writeRecord(p)
				return werr == nil
			}
			// No tail is sealed, so what is not in a segment is the active
			// tail (a commit landed after the drain) or the row set.
			if s := t.tail; s != nil {
				s.eachRow(s.pkPerm(t.pkCols), 0, s.rows, write)
			}
			t.active.walk("", nil, nil, write)
			if werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reldb: checkpoint: %w", err)
	}
	st.stepped("snapshot")
	// The manifest must reflect the surviving segments, and put every tail
	// log below its table's low-water mark, before the logs — their other
	// source of truth — are discarded. Stale segments go: a table that
	// still has any was not re-segmented, so the snapshot holds it in
	// full. A table the snapshot holds rows of (a commit landed after the
	// drain, or it cannot be sealed) pins its tail logs from here on (rule
	// 3).
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			t.releaseStaleLocked()
			t.pinLogs = t.unsealedLocked() > 0
		}
	}
	m, garbage := st.manifestLocked()
	for i, name := range segmentHotTables {
		m.lowWater[i] = st.logSeq[name]
	}
	if err := st.writeManifest(m, garbage); err != nil {
		return err
	}
	st.stepped("checkpoint manifest")
	// Snapshot and manifest-referenced segments now capture every log's
	// effects.
	if err := fe.wal.f.Truncate(0); err != nil { // opened O_APPEND: the next record lands at offset 0
		return err
	}
	fe.logTrimmed += uint64(fe.wal.size) + discardLogs(st.retired)
	fe.wal.w, fe.wal.size, fe.wal.synced = newRecordWriter(fe.wal.f), 0, 0
	st.retired = nil
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			t.discardLogsLocked()
		}
	}
	st.stepped("checkpoint truncate")
	return nil
}

// DiskSize reports the total bytes on disk (logs + snapshot + segment
// files), flushing buffered log records first so the figure is accurate.
func (fe *FileEngine) DiskSize() (int64, error) {
	s, err := fe.stats()
	return s.DiskBytes, err
}

// Stats extends the in-memory statistics with on-disk footprint: logs
// (perftrack.wal and every live tail log, as WALBytes), snapshot and
// segment files. When a log cannot be flushed its size on disk is stale,
// so WALBytes (and with it DiskBytes) stays at the last good value and
// the failure is counted in FlushErrors.
func (fe *FileEngine) Stats() Stats {
	s, _ := fe.stats()
	return s
}

func (fe *FileEngine) stats() (Stats, error) {
	s := fe.DB.Stats()
	s.Kind = fe.Kind()
	fe.mu.Lock()
	var err error
	for _, l := range fe.openLogsLocked() {
		err = errors.Join(err, l.flush())
	}
	if err != nil {
		fe.flushErrors++
	} else {
		fe.logBytes = 0
		for _, l := range fe.liveLogsLocked() {
			fe.logBytes += l.size
		}
	}
	s.WALBytes, s.FlushErrors = fe.logBytes, fe.flushErrors
	fe.mu.Unlock()
	if info, err := os.Stat(fe.snapPath()); err == nil {
		s.SnapshotBytes = info.Size()
	}
	s.DiskBytes = s.WALBytes + s.SnapshotBytes + s.SegmentBytes
	return s, err
}

// closeLogs releases every log's file handle without flushing.
func (fe *FileEngine) closeLogs() error {
	var err error
	for _, l := range fe.liveLogsLocked() {
		err = errors.Join(err, l.f.Close())
	}
	return err
}

// Close stops the compactor, flushes and fsyncs the logs, and releases
// their file handles — always, whatever failed before; it returns every
// failure.
func (fe *FileEngine) Close() error {
	fe.seg.shutdown()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	var err error
	for _, l := range fe.liveLogsLocked() {
		err = errors.Join(err, l.sync())
	}
	return errors.Join(err, fe.closeLogs())
}
