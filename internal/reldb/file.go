package reldb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// FileEngine is the durable storage engine: an in-memory DB whose
// mutations stream to a write-ahead log, a background compactor that
// drains the hot tables into columnar segment files (compact.go), and
// snapshots written by Checkpoint. Opening a directory loads the latest
// snapshot, attaches the segments and replays the WAL, discarding a torn
// trailing record; a store that has compacted nothing yet is just
// snapshot + WAL. It stands in for the persistent DBMS backends (Oracle,
// PostgreSQL) of the original PerfTrack prototype. Its DB.seg is never
// nil.
type FileEngine struct {
	*DB
	dir        string
	wal        *os.File
	walW       *recordWriter
	syncWAL    bool // fsync the WAL after every flush
	batchDepth int  // >0: defer flush/sync to EndWALBatch
}

const (
	snapshotFile = "perftrack.snap"
	walFile      = "perftrack.wal"
)

// snapshot record tags
const (
	snapTagSchema byte = 1
	snapTagRow    byte = 2
)

// OpenFile opens (or creates) the durable database rooted at dir.
// Recovery order is snapshot, then segments (skipping rows the snapshot
// already holds), then WAL replay (replacing divergent rows: the log is
// truth).
func OpenFile(dir string) (*FileEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	fe := &FileEngine{DB: NewMem(), dir: dir}
	fe.seg = newSegState(fe)
	if err := fe.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := fe.seg.load(); err != nil {
		return nil, err
	}
	if err := fe.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(fe.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reldb: open WAL: %w", err)
	}
	fe.wal = wal
	fe.walW = newRecordWriter(wal)
	fe.DB.logger = fe
	fe.seg.initAfterRecovery()
	// Resync the manifest with post-replay state (a replayed DROP
	// TABLE may have retired segments) before orphan cleanup, so the
	// manifest never references a deleted file.
	if err := fe.seg.writeManifest(); err != nil {
		return nil, err
	}
	fe.seg.cleanOrphans()
	go fe.seg.run()
	return fe, nil
}

// SetSync controls whether the WAL is fsynced after every logged mutation
// batch. Synchronous mode is durable against power loss but much slower;
// it is off by default, matching a DBMS with commit batching.
func (fe *FileEngine) SetSync(sync bool) { fe.syncWAL = sync }

func (fe *FileEngine) snapPath() string { return filepath.Join(fe.dir, snapshotFile) }
func (fe *FileEngine) walPath() string  { return filepath.Join(fe.dir, walFile) }

// logMutation appends one mutation to the WAL. Called with the DB write
// lock held. In the default asynchronous mode records accumulate in the
// writer's buffer and reach the file in batches (flushed on checkpoint,
// close, and size queries); synchronous mode flushes and fsyncs per
// mutation, trading load throughput for crash durability — the usual
// DBMS commit-batching trade-off.
func (fe *FileEngine) logMutation(m *mutation) error {
	if err := fe.walW.writeRecord(encodeMutationPayload(m)); err != nil {
		return err
	}
	if fe.syncWAL && fe.batchDepth == 0 {
		if err := fe.walW.flush(); err != nil {
			return err
		}
		if err := fe.wal.Sync(); err != nil {
			return err
		}
	}
	fe.seg.note(m)
	if fe.batchDepth == 0 {
		fe.seg.maybeNotify()
	}
	return nil
}

// BeginWALBatch suspends per-mutation WAL flushing until the matching
// EndWALBatch, which flushes (and, in synchronous mode, fsyncs) exactly
// once. The datastore's batch commit wraps each multi-record commit in a
// BeginWALBatch/EndWALBatch pair so a thousand-record document costs one
// flush instead of a thousand — the DBMS group-commit discipline. Calls
// nest; only the outermost EndWALBatch performs the flush.
func (fe *FileEngine) BeginWALBatch() {
	fe.mu.Lock()
	fe.batchDepth++
	fe.mu.Unlock()
}

// EndWALBatch closes a BeginWALBatch window, performing the single
// deferred WAL flush for everything logged inside it.
func (fe *FileEngine) EndWALBatch() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.batchDepth > 0 {
		fe.batchDepth--
	}
	if fe.batchDepth > 0 {
		return nil
	}
	if err := fe.walW.flush(); err != nil {
		return err
	}
	fe.seg.maybeNotify()
	if fe.syncWAL {
		return fe.wal.Sync()
	}
	return nil
}

// apply reproduces a logged mutation during recovery (no re-logging).
func (fe *FileEngine) apply(m *mutation) error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	switch m.op {
	case opCreateTable:
		return fe.createTableLocked(m.schema, false)
	case opDropTable:
		delete(fe.tables, m.table)
		fe.seg.resetTable(m.table)
		return nil
	case opCreateIndex:
		t, ok := fe.tables[m.table]
		if !ok {
			return fmt.Errorf("reldb: recovery: no table %q", m.table)
		}
		if err := t.addIndex(m.index); err != nil {
			return err
		}
		t.schema.Indexes = append(t.schema.Indexes, m.index)
		return nil
	case opDropIndex:
		t, ok := fe.tables[m.table]
		if !ok {
			return fmt.Errorf("reldb: recovery: no table %q", m.table)
		}
		delete(t.indexes, m.index.Name)
		for i, spec := range t.schema.Indexes {
			if spec.Name == m.index.Name {
				t.schema.Indexes = append(t.schema.Indexes[:i], t.schema.Indexes[i+1:]...)
				break
			}
		}
		return nil
	case opInsert:
		t, ok := fe.tables[m.table]
		if !ok {
			return fmt.Errorf("reldb: recovery: no table %q", m.table)
		}
		if existing, dup := t.rows[m.id]; dup {
			// The row was preloaded from the snapshot or a segment (the
			// WAL survived a checkpoint crash window or a compaction).
			// Equal images are an idempotent no-op; on divergence the
			// log wins, and any segment copy is now stale.
			if rowsEqual(existing, m.row) {
				return nil
			}
			if _, err := t.updateLocked(m.id, m.row); err != nil {
				return err
			}
			fe.seg.markDirtyBelow(m.table, m.id)
			return nil
		}
		return t.insertAtLocked(m.id, m.row)
	case opUpdate:
		t, ok := fe.tables[m.table]
		if !ok {
			return fmt.Errorf("reldb: recovery: no table %q", m.table)
		}
		if _, exists := t.rows[m.id]; !exists {
			// Snapshot newer than this record and the row was later
			// deleted-and-recreated; restore the update image so the
			// remaining log replays onto the right state.
			return t.insertAtLocked(m.id, m.row)
		}
		if _, err := fe.updateLocked(m.table, m.id, m.row, false); err != nil {
			return err
		}
		fe.seg.markDirtyBelow(m.table, m.id)
		return nil
	case opDelete:
		t, ok := fe.tables[m.table]
		if !ok {
			return fmt.Errorf("reldb: recovery: no table %q", m.table)
		}
		if _, exists := t.rows[m.id]; !exists {
			return nil // snapshot already reflects the delete
		}
		if _, err := fe.deleteLocked(m.table, m.id, false); err != nil {
			return err
		}
		fe.seg.markDirtyBelow(m.table, m.id)
		return nil
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

// insertAtLocked inserts a row under a specific row ID (recovery path).
func (t *Table) insertAtLocked(id int64, row Row) error {
	if _, exists := t.rows[id]; exists {
		return fmt.Errorf("reldb: recovery: table %q: row %d already present", t.schema.Name, id)
	}
	row = row.Clone()
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	pk := t.pkKey(row)
	if _, exists := t.primary.Get(pk); exists {
		return fmt.Errorf("reldb: recovery: table %q: duplicate primary key %s", t.schema.Name, row)
	}
	for _, ix := range t.indexes {
		if err := ix.insert(row, id); err != nil {
			return err
		}
	}
	t.rows[id] = row
	t.primary.Set(pk, id)
	t.dataBytes += rowBytes(row)
	t.pkBytes += int64(len(pk)) + 8
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return nil
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
			err = t.insertAtLocked(id, row)
			fe.mu.Unlock()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: snapshot tag %d", ErrCorruptLog, tag)
		}
	}
}

func (fe *FileEngine) replayWAL() error {
	f, err := os.Open(fe.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("reldb: open WAL: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	var good int64 // bytes of fully-valid records
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrCorruptLog) {
			// Torn tail: truncate the WAL to the last valid record.
			if terr := os.Truncate(fe.walPath(), good); terr != nil {
				return fmt.Errorf("reldb: truncate torn WAL: %w", terr)
			}
			break
		}
		if err != nil {
			return err
		}
		m, err := decodeMutationPayload(payload)
		if err != nil {
			return err
		}
		if err := fe.apply(m); err != nil {
			return err
		}
		good += int64(len(payload)) + 8
	}
	return nil
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
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Checkpoint writes a snapshot atomically and truncates the WAL. The hot
// tables' segment-resident rows are omitted — they are already durable
// in fsynced segment files referenced by the manifest — so the
// checkpoint costs O(non-hot tables + unflushed tail) instead of a full
// rewrite of the result tables. Dirty or unordered hot tables are reset
// here: their segments are dropped and the snapshot holds them in full.
func (fe *FileEngine) Checkpoint() error {
	// Drain the tails first so the snapshot's hot-table share is only
	// whatever arrived since this compaction.
	if err := fe.seg.compact(1); err != nil && !errors.Is(err, errCompactBusy) {
		return err
	}
	fe.seg.compactMu.Lock()
	defer fe.seg.compactMu.Unlock()
	fe.mu.Lock()
	defer fe.mu.Unlock()
	dropped := fe.seg.resetStaleLocked()
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
			// Segment-resident rows (ID at or below the watermark) are
			// durable in their segment files; only the tail goes into the
			// snapshot.
			var skipBelow int64
			if sg := fe.seg.tables[name]; sg != nil {
				skipBelow = sg.watermark.Load()
			}
			var werr error
			t.primary.Ascend(nil, nil, func(_ []byte, id int64) bool {
				if skipBelow > 0 && id <= skipBelow {
					return true
				}
				p := []byte{snapTagRow}
				p = putVarint(p, id)
				p = encodeRowPayload(p, t.rows[id])
				werr = rw.writeRecord(p)
				return werr == nil
			})
			if werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reldb: checkpoint: %w", err)
	}
	// The manifest must reflect the surviving segments before the WAL —
	// their other source of truth — is discarded.
	if err := fe.seg.writeManifest(); err != nil {
		return err
	}
	// Truncate the WAL: its effects are captured by the snapshot and
	// the manifest-referenced segments.
	if err := fe.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := fe.wal.Seek(0, io.SeekStart); err != nil {
		return err
	}
	fe.walW = newRecordWriter(fe.wal)
	for _, path := range dropped {
		os.Remove(path) // best effort; open-time cleanup catches leftovers
	}
	return nil
}

// DiskSize reports the total bytes on disk (snapshot + WAL + segment
// files), flushing buffered WAL records first so the figure is accurate.
func (fe *FileEngine) DiskSize() (int64, error) {
	fe.mu.Lock()
	err := fe.walW.flush()
	fe.mu.Unlock()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, path := range []string{fe.snapPath(), fe.walPath()} {
		info, err := os.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total + fe.seg.segmentBytes(), nil
}

// Stats extends the in-memory statistics with on-disk footprint: WAL,
// snapshot, and per-table segment residency.
func (fe *FileEngine) Stats() Stats {
	s := fe.DB.Stats()
	s.Kind = fe.Kind()
	fe.mu.Lock()
	_ = fe.walW.flush()
	fe.mu.Unlock()
	if info, err := os.Stat(fe.walPath()); err == nil {
		s.WALBytes = info.Size()
	}
	if info, err := os.Stat(fe.snapPath()); err == nil {
		s.SnapshotBytes = info.Size()
	}
	fe.seg.mu.RLock()
	for name, sg := range fe.seg.tables {
		if len(sg.segs) == 0 {
			continue
		}
		ts := s.PerTable[name]
		ts.Segments = len(sg.segs)
		ts.SegmentRows = sg.segRows
		ts.SegmentBytes = sg.segBytes
		s.PerTable[name] = ts
		s.SegmentBytes += sg.segBytes
	}
	fe.seg.mu.RUnlock()
	s.DiskBytes = s.WALBytes + s.SnapshotBytes + s.SegmentBytes
	return s
}

// Close stops the compactor, flushes the WAL, and releases file handles.
func (fe *FileEngine) Close() error {
	fe.seg.shutdown()
	if fe.walW != nil {
		if err := fe.walW.flush(); err != nil {
			return err
		}
	}
	if fe.wal != nil {
		if err := fe.wal.Sync(); err != nil {
			return err
		}
		return fe.wal.Close()
	}
	return nil
}
