package reldb

import (
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
// mutations stream to a write-ahead log, a background compactor that
// moves the hot tables' rows into columnar segments (compact.go), and
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

	walBytes    int64  // WAL size at the last Stats call that could flush it
	flushErrors uint64 // Stats calls that could not
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
// Recovery order is snapshot (the rows no segment holds), then the
// manifest's segments, attached without inserting a row, then WAL
// replay, where an insert a segment already serves is a no-op and an
// update or delete of a flushed row rehydrates its table exactly as it
// would at run time (the log is truth).
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
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			if err := fe.seg.attachLocked(t); err != nil {
				return nil, err
			}
		}
	}
	if err := fe.replayWAL(); err != nil {
		return nil, err
	}
	fe.seg.loaded = nil
	wal, err := os.OpenFile(fe.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reldb: open WAL: %w", err)
	}
	fe.wal = wal
	fe.walW = newRecordWriter(wal)
	fe.DB.logger = fe
	// Resync the manifest with post-replay state (a replayed DROP TABLE
	// or rehydration may have retired segments) before orphan cleanup, so
	// the manifest never references a deleted file.
	files, garbage := fe.seg.manifestLocked()
	if err := fe.seg.writeManifest(files, garbage); err != nil {
		wal.Close()
		return nil, err
	}
	fe.seg.cleanOrphans(files)
	go fe.seg.run()
	// A tail that replay left at or above the threshold drains now, not
	// at the next commit.
	fe.mu.Lock()
	fe.seg.sealReadyLocked(fe.seg.flushRows.Load())
	fe.mu.Unlock()
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
	// An unbatched insert is its own batch boundary. Updates and deletes
	// are not: one that rehydrated a table would otherwise see it sealed
	// again at once, and the next would rehydrate it again.
	if fe.batchDepth == 0 && m.op == opInsert {
		fe.seg.sealReadyLocked(fe.seg.flushRows.Load())
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
	fe.seg.sealReadyLocked(fe.seg.flushRows.Load())
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
		if err := fe.createTableLocked(m.schema, false); err != nil {
			return err
		}
		return fe.seg.attachLocked(fe.tables[m.schema.Name])
	case opDropTable:
		fe.dropTableLocked(m.table)
		delete(fe.seg.loaded, m.table) // the rows the manifest's segments held died with the table
		return nil
	case opCreateIndex:
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
		// (the WAL outlives compactions and a checkpoint's crash window).
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

// Checkpoint writes a snapshot atomically and truncates the WAL. It
// first seals and drains every hot table's tail — lifting the
// row-resident hold on tables rehydrated for disorder — so the snapshot,
// which is simply the row sets, holds none of the rows that fsynced,
// manifest-listed segments already make durable: the checkpoint costs
// O(non-hot tables + whatever arrived during it), not a rewrite of the
// result tables.
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
			t.active.primary.Ascend(nil, nil, func(_ []byte, id int64) bool {
				p := []byte{snapTagRow}
				p = putVarint(p, id)
				p = encodeRowPayload(p, t.active.rows[id])
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
	// their other source of truth — is discarded. Stale ones go: a table
	// that still has any was not re-segmented, so the snapshot holds it
	// in full.
	for _, name := range segmentHotTables {
		if t := fe.tables[name]; t != nil {
			t.releaseStaleLocked()
		}
	}
	if err := st.writeManifest(st.manifestLocked()); err != nil {
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
	return total + fe.DB.Stats().SegmentBytes, nil
}

// Stats extends the in-memory statistics with on-disk footprint: WAL,
// snapshot and segment files. When the WAL cannot be flushed its size on
// disk is stale, so WALBytes (and with it DiskBytes) stays at the last
// good value and the failure is counted in FlushErrors.
func (fe *FileEngine) Stats() Stats {
	s := fe.DB.Stats()
	s.Kind = fe.Kind()
	fe.mu.Lock()
	if err := fe.walW.flush(); err != nil {
		fe.flushErrors++
	} else if info, err := os.Stat(fe.walPath()); err == nil {
		fe.walBytes = info.Size()
	}
	s.WALBytes, s.FlushErrors = fe.walBytes, fe.flushErrors
	fe.mu.Unlock()
	if info, err := os.Stat(fe.snapPath()); err == nil {
		s.SnapshotBytes = info.Size()
	}
	s.DiskBytes = s.WALBytes + s.SnapshotBytes + s.SegmentBytes
	return s
}

// Close stops the compactor, flushes and fsyncs the WAL, and releases its
// file handle — always, whatever failed before; it returns every failure.
func (fe *FileEngine) Close() error {
	fe.seg.shutdown()
	return errors.Join(fe.walW.flush(), fe.wal.Sync(), fe.wal.Close())
}
