package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The durable engine keeps one resident copy of every row of its hot,
// bulk-scanned tables (Table's doc comment has the read side). A batch
// boundary that leaves a table's active row set at or above the flush
// threshold seals it — swaps in an empty one, O(1); the background
// compactor encodes the sealed set into an immutable columnar segment
// file, publishes the decoded segment and drops the set, again O(1).
// Nothing is deleted row by row and nothing re-inserted, at run time or
// at recovery. A mutation the frozen shapes cannot absorb rehydrates the
// table (Table.rehydrateLocked), the only fallback.
//
// The WAL remains the durable source of truth until a checkpoint: a
// segment only becomes load-bearing once the WAL records it covers are
// fsynced, the segment file itself is fsynced, and the manifest
// references it — and the WAL is only truncated at checkpoint, after all
// of that is durable.

// segmentHotTables lists the bulk-scanned relations the compactor
// drains into columnar files. Everything else lives purely in its row
// set and the snapshot.
var segmentHotTables = []string{"performance_result", "result_has_focus", "focus_has_resource"}

func isHotTable(name string) bool { return slices.Contains(segmentHotTables, name) }

const (
	segmentSubdir   = "segments"
	manifestFile    = "MANIFEST"
	defaultSegFlush = 4096
)

// segState is a FileEngine's compaction state; what each hot table has
// sealed and flushed lives on the Table, under the engine lock.
type segState struct {
	fe  *FileEngine
	dir string

	compactMu sync.Mutex // serializes compaction passes and checkpoints
	nextSeq   int64      // under compactMu

	flushRows   atomic.Int64
	compactions atomic.Uint64 // compaction passes that wrote segments
	segsWritten atomic.Uint64 // segment files written

	// Guarded by the engine lock.
	loaded  map[string][]*segment // recovery: manifest-listed segments, by table, until replay ends
	garbage []string              // files of released segments, removed after the next manifest write

	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newSegState(fe *FileEngine) *segState {
	st := &segState{
		fe:     fe,
		dir:    filepath.Join(fe.dir, segmentSubdir),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	st.flushRows.Store(defaultSegFlush)
	return st
}

// SetSegmentFlushRows sets how many unflushed tail rows a hot table
// accumulates before a batch boundary seals them for the compactor.
func (fe *FileEngine) SetSegmentFlushRows(n int64) {
	if n > 0 {
		fe.seg.flushRows.Store(n)
	}
}

// --- sealing (engine write lock held) ---

// sealable reports whether a hot table's tail may be sealed: it has an
// integer leading key, no unique index (segments cannot enforce one) and
// no disorder since the last checkpoint.
func (t *Table) sealable() bool {
	if t.resident == residentUnordered || len(t.pkCols) == 0 || t.schema.Columns[t.pkCols[0]].Type != KindInt {
		return false
	}
	for _, ix := range t.active.indexes {
		if ix.spec.Unique {
			return false
		}
	}
	return true
}

// sealReadyLocked seals every hot table whose active set holds at least
// atLeast rows and has no sealed set in flight, then wakes the compactor if
// any table has work for it. Callers have no write batch open, so every
// row sealed is final: rollback compensation has already run.
func (st *segState) sealReadyLocked(atLeast int64) {
	work := false
	for _, name := range segmentHotTables {
		t := st.fe.tables[name]
		if t == nil {
			continue
		}
		if n := int64(len(t.active.rows)); t.sealed == nil && n > 0 && n >= atLeast && t.sealable() {
			t.frozenMaxID = max(t.frozenMaxID, t.active.maxID)
			t.frozenMaxKey = t.active.primary.root.max().key
			if t.resident == residentMutated {
				t.resident = 0
			}
			t.installLocked(t.active, t.newRowSet())
		}
		work = work || t.sealed != nil
	}
	if work {
		select {
		case st.notify <- struct{}{}:
		default:
		}
	}
}

// adoptLocked makes a segment part of the table.
func (t *Table) adoptLocked(s *segment) {
	s.perms = make(map[string]*lazyPerm, len(t.active.indexes))
	for name := range t.active.indexes {
		s.perms[name] = new(lazyPerm)
	}
	t.segs = append(t.segs, s)
	t.segRows += int64(s.rows)
	t.segBytes += s.sizeOn
	t.segDataBytes += s.decodedBytes()
}

// releaseStaleLocked gives up the files of rehydrated-away segments, once
// their rows are durable elsewhere: in the table's first new segment,
// which a seal after rehydration fills with every row, or in a snapshot.
// The files are deleted when a manifest that no longer lists them is
// durable.
func (t *Table) releaseStaleLocked() {
	if len(t.stale) > 0 {
		t.db.seg.garbage = append(t.db.seg.garbage, t.stale...)
		t.stale, t.staleBytes = nil, 0
	}
}

// --- background compactor ---

func (st *segState) run() {
	defer close(st.done)
	for {
		select {
		case <-st.stop:
			return
		case <-st.notify:
		}
		st.compactMu.Lock()
		// A failed pass leaves its sealed sets in place, still serving
		// reads; the next batch boundary wakes the compactor to retry.
		_ = st.drain(false)
		st.compactMu.Unlock()
	}
}

func (st *segState) shutdown() {
	st.stopOnce.Do(func() {
		close(st.stop)
		<-st.done
	})
}

// CompactSegments synchronously seals and drains every hot table's tail
// into columnar segments, whatever the flush threshold. Rows of a write
// batch still open stay in the tail.
func (fe *FileEngine) CompactSegments() error {
	fe.seg.compactMu.Lock()
	defer fe.seg.compactMu.Unlock()
	return fe.seg.drain(true)
}

// drain encodes and publishes sealed sets until none is left; with force
// it first seals every non-empty tail. Each pass makes the WAL durable
// once, writes a segment per sealed set outside the engine lock, then
// under it appends the segment and drops the set — sealing the table's
// next tail itself when that has meanwhile crossed the threshold — and
// rewrites the manifest. Requires compactMu.
func (st *segState) drain(force bool) error {
	fe := st.fe
	type job struct {
		t   *Table
		set *rowSet
	}
	for ; ; force = false {
		var jobs []job
		fe.mu.Lock()
		if force && fe.batchDepth == 0 {
			st.sealReadyLocked(1)
		}
		for _, name := range segmentHotTables {
			if t := fe.tables[name]; t != nil && t.sealed != nil {
				jobs = append(jobs, job{t, t.sealed})
			}
		}
		err := fe.walW.flush()
		fe.mu.Unlock()
		if err != nil || len(jobs) == 0 {
			return err
		}
		// The WAL is truth: its records must be durable before a segment
		// that mirrors them can be named.
		if err := fe.wal.Sync(); err != nil {
			return err
		}
		for _, j := range jobs {
			seg, err := st.writeSegment(j.t, j.set)
			if err != nil {
				return err
			}
			fe.mu.Lock()
			if fe.tables[seg.table] == j.t && j.t.sealed == j.set {
				j.t.adoptLocked(seg)
				j.t.releaseStaleLocked()
				j.t.installLocked(nil, j.t.active)
				st.segsWritten.Add(1)
				if fe.batchDepth == 0 {
					st.sealReadyLocked(st.flushRows.Load())
				}
			} else {
				// Dropped or rehydrated while it was being encoded.
				st.garbage = append(st.garbage, seg.file)
			}
			fe.mu.Unlock()
		}
		st.compactions.Add(1)
		fe.mu.Lock()
		files, garbage := st.manifestLocked()
		fe.mu.Unlock()
		if err := st.writeManifest(files, garbage); err != nil {
			return err
		}
	}
}

// writeSegment encodes a sealed row set, already in primary-key order
// and immutable, into a new fsynced segment file.
func (st *segState) writeSegment(t *Table, set *rowSet) (*segment, error) {
	ids := make([]int64, 0, len(set.rows))
	rows := make([]Row, 0, len(set.rows))
	set.primary.Ascend(nil, nil, func(_ []byte, id int64) bool {
		ids, rows = append(ids, id), append(rows, set.rows[id])
		return true
	})
	seg, err := buildSegment(t, ids, rows)
	if err != nil {
		return nil, err
	}
	st.nextSeq++
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%s-%08d.seg", seg.table, st.nextSeq))
	return seg, writeSegmentFile(path, seg)
}

// --- manifest ---

// manifestLocked returns what the next manifest lists — the live and
// the stale segment files of each hot table — and takes the released
// files it thereby stops referencing.
func (st *segState) manifestLocked() (files [][]string, garbage []string) {
	for _, name := range segmentHotTables {
		var list []string
		if t := st.fe.tables[name]; t != nil {
			for _, path := range t.stale {
				list = append(list, filepath.Base(path))
			}
			for _, s := range t.segs {
				list = append(list, filepath.Base(s.file))
			}
		}
		files = append(files, list)
	}
	garbage, st.garbage = st.garbage, nil
	return files, garbage
}

// writeManifest atomically rewrites the manifest (files[i] belongs to
// segmentHotTables[i]) and then deletes the garbage it no longer names.
// Requires compactMu.
func (st *segState) writeManifest(files [][]string, garbage []string) error {
	err := replaceFile(filepath.Join(st.dir, manifestFile), func(rw *recordWriter) error {
		hdr := putUvarint(nil, 1) // version
		hdr = putVarint(hdr, st.nextSeq)
		if err := rw.writeRecord(hdr); err != nil {
			return err
		}
		for i, name := range segmentHotTables {
			p := putString(nil, name)
			p = putUvarint(p, uint64(len(files[i])))
			for _, file := range files[i] {
				p = putString(p, file)
			}
			if err := rw.writeRecord(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("reldb: write manifest: %w", err)
	}
	for _, path := range garbage {
		os.Remove(path) // best effort; open-time cleanup catches leftovers
	}
	return nil
}

// load reads the manifest and decodes the segment files it lists into
// st.loaded. Runs after loadSnapshot; attachLocked then hands each table
// its segments, at once if the snapshot created the table, else when WAL
// replay does.
func (st *segState) load() error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("reldb: open %s: %w", st.dir, err)
	}
	f, err := os.Open(filepath.Join(st.dir, manifestFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("reldb: open manifest: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	hdr, err := rr.readRecord()
	if err != nil {
		return fmt.Errorf("reldb: manifest: %w", err)
	}
	hp := &payloadReader{buf: hdr}
	if _, err := hp.uvarint(); err != nil { // version
		return fmt.Errorf("reldb: manifest: %w", err)
	}
	if st.nextSeq, err = hp.varint(); err != nil {
		return fmt.Errorf("reldb: manifest: %w", err)
	}
	st.loaded = make(map[string][]*segment)
	for {
		payload, err := rr.readRecord()
		if err != nil {
			if errors.Is(err, ErrCorruptLog) {
				return fmt.Errorf("reldb: manifest: %w", err)
			}
			return nil // io.EOF
		}
		p := &payloadReader{buf: payload}
		name, err := p.str()
		if err != nil {
			return fmt.Errorf("reldb: manifest: %w", err)
		}
		n, err := p.uvarint()
		if err != nil {
			return fmt.Errorf("reldb: manifest: %w", err)
		}
		for i := uint64(0); i < n; i++ {
			file, err := p.str()
			if err != nil {
				return fmt.Errorf("reldb: manifest: %w", err)
			}
			seg, err := readSegmentFile(filepath.Join(st.dir, file))
			if err != nil {
				return err
			}
			if seg.table != name {
				return fmt.Errorf("%w: segment %s holds table %q, manifest says %q",
					ErrCorruptSegment, file, seg.table, name)
			}
			if isHotTable(name) { // else no longer hot; orphan cleanup removes the file
				st.loaded[name] = append(st.loaded[name], seg)
			}
		}
	}
}

// attachLocked hands a table created during recovery the segments the
// manifest lists for it, without inserting a row: the table's next row
// ID and frozen range move past them, and WAL replay finds their rows
// already served. The snapshot normally holds none of those rows. It
// does when it and the manifest are of different ages — a checkpoint
// crashed between writing the two, or it snapshotted a tail (a batch was
// open) that a later re-segmentation then flushed — and in both cases
// the WAL since the older of them is intact, so either image replays to
// the truth: the segment's is kept and the snapshot's copy dropped. If
// what remains is not in ascending key and row-ID order (a store
// written before rows left the row store could hold such), the table is
// rehydrated at once.
func (st *segState) attachLocked(t *Table) error {
	segs := st.loaded[t.schema.Name]
	if len(segs) == 0 {
		return nil
	}
	ordered := t.sealable()
	for i, s := range segs {
		if !s.matches(t.schema) {
			return fmt.Errorf("%w: segment %s does not match the schema of table %q",
				ErrCorruptSegment, s.file, s.table)
		}
		key := t.pkKey(s.row(0))
		if i > 0 && (s.minRowID <= t.frozenMaxID || bytes.Compare(key, t.frozenMaxKey) <= 0) {
			ordered = false
		}
		t.frozenMaxID, t.frozenMaxKey = max(t.frozenMaxID, s.maxRowID), t.pkKey(s.row(s.rows-1))
		t.adoptLocked(s)
	}
	for id, row := range t.active.rows {
		if ref, ok := t.findIDLocked(id); ok && ref.seg != nil {
			t.active.remove(id, row, t.pkKey(row))
		}
	}
	if t.active.primary.Len() > 0 && bytes.Compare(t.active.primary.root.min().key, t.frozenMaxKey) <= 0 {
		ordered = false
	}
	t.nextID = max(t.nextID, t.frozenMaxID+1)
	if !ordered {
		t.rehydrateLocked(residentUnordered)
	}
	return nil
}

// cleanOrphans removes segment files the manifest (files, as
// manifestLocked returns them) does not list — leftovers of crashed
// compactions or released segments.
func (st *segState) cleanOrphans(files [][]string) {
	live := make(map[string]bool)
	for _, list := range files {
		for _, file := range list {
			live[file] = true
		}
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == manifestFile || live[name] {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
}

// --- stats ---

// SegmentTableStatus describes one hot table's segment state.
// PendingRows counts the rows not yet in a segment (sealed and active).
// Dirty and Unordered report the two row-resident fallbacks: rehydrated
// for a changed row until the next seal, or kept out of segments (key
// disorder until the next checkpoint, or a shape segments cannot hold).
type SegmentTableStatus struct {
	Table       string `json:"table"`
	Segments    int    `json:"segments"`
	Rows        int64  `json:"rows"`
	Bytes       int64  `json:"bytes"`
	PendingRows int64  `json:"pending_rows"`
	Watermark   int64  `json:"watermark"`
	Dirty       bool   `json:"dirty"`
	Unordered   bool   `json:"unordered"`
}

// SegmentStats summarizes the durable engine's compaction state.
type SegmentStats struct {
	Enabled         bool                 `json:"enabled"` // always true; kept on the wire for /v1/stats readers
	FlushRows       int64                `json:"flush_rows"`
	Compactions     uint64               `json:"compactions"`
	SegmentsWritten uint64               `json:"segments_written"`
	Tables          []SegmentTableStatus `json:"tables,omitempty"`
}

// SegmentStats reports compaction status.
func (fe *FileEngine) SegmentStats() SegmentStats {
	st := fe.seg
	out := SegmentStats{
		Enabled:         true,
		FlushRows:       st.flushRows.Load(),
		Compactions:     st.compactions.Load(),
		SegmentsWritten: st.segsWritten.Load(),
	}
	fe.mu.RLock()
	defer fe.mu.RUnlock()
	for _, name := range segmentHotTables {
		status := SegmentTableStatus{Table: name}
		if t := fe.tables[name]; t != nil {
			status.Segments, status.Rows, status.Bytes = len(t.segs), t.segRows, t.segBytes
			status.PendingRows = t.lenLocked() - t.segRows
			if len(t.segs) > 0 {
				status.Watermark = t.segs[len(t.segs)-1].maxRowID
			}
			status.Dirty = t.resident == residentMutated
			status.Unordered = !t.sealable()
		}
		out.Tables = append(out.Tables, status)
	}
	return out
}
