package reldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The durable engine's background compactor drains committed WAL
// batches for the hot, bulk-scanned tables into immutable columnar
// segment files. The
// WAL remains the single source of truth: a segment only becomes
// load-bearing once the WAL records it covers are fsynced, the segment
// file itself is fsynced, and the manifest references it — and the WAL
// is only truncated at checkpoint, after all of that is durable.
//
// Invariants the scan path relies on (per hot table):
//
//	watermark   max row ID resident in any live segment; rows with
//	            higher IDs form the unflushed tail and are read from
//	            the B-tree.
//	ordered     inserts arrive in ascending first-PK order (true for
//	            PerfTrack's append-only result and link tables), so
//	            segments partition the PK space and every tail row's
//	            PK exceeds the flushed maximum. Violations set the
//	            unordered flag, which disables the columnar scan path
//	            (reads fall back to the B-tree) until a checkpoint
//	            rebuilds the segments from scratch.
//	dirty       an update/delete/replay-replace touched a flushed row,
//	            so some segment content is stale. Same fallback; the
//	            next checkpoint drops the segments, snapshots the full
//	            table, and starts over.

// segmentHotTables lists the bulk-scanned relations the compactor
// drains into columnar files. Everything else lives purely in the
// B-tree and the snapshot.
var segmentHotTables = []string{"performance_result", "result_has_focus", "focus_has_resource"}

const (
	segmentSubdir   = "segments"
	manifestFile    = "MANIFEST"
	defaultSegFlush = 4096
)

// errCompactBusy reports a compaction skipped because a write batch was
// open; the compactor retries shortly after.
var errCompactBusy = errors.New("reldb: compaction deferred: write batch open")

// segTable is the per-hot-table segment state.
type segTable struct {
	name string

	// Guarded by segState.mu. watermark/maxPK are additionally atomics
	// so the mutation path can read them without taking segState.mu.
	segs     []*segment
	segRows  int64
	segBytes int64

	watermark   atomic.Int64 // max row ID flushed into a live segment
	maxPK       atomic.Int64 // max first-PK value flushed
	flushingMax atomic.Int64 // max row ID in an in-flight compaction batch
	dirty       atomic.Bool
	unordered   atomic.Bool
	pendingN    atomic.Int64

	// Guarded by the owning DB's write lock (note runs under it).
	pending []int64 // unflushed row IDs in insert order
	lastPK  int64   // max first-PK value ever inserted
	havePK  bool
}

// segState is a FileEngine's compaction and segment-residency state.
type segState struct {
	fe     *FileEngine
	dir    string
	tables map[string]*segTable // fixed at construction; lock-free reads

	mu        sync.RWMutex // guards segTable.segs slices and counters
	compactMu sync.Mutex   // serializes compaction passes and checkpoints
	nextSeq   int64        // under compactMu

	flushRows   atomic.Int64
	compactions atomic.Uint64 // compaction passes that wrote segments
	segsWritten atomic.Uint64 // segment files written

	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newSegState(fe *FileEngine) *segState {
	st := &segState{
		fe:     fe,
		dir:    filepath.Join(fe.dir, segmentSubdir),
		tables: make(map[string]*segTable, len(segmentHotTables)),
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	st.flushRows.Store(defaultSegFlush)
	for _, name := range segmentHotTables {
		st.tables[name] = &segTable{name: name}
	}
	return st
}

// SetSegmentFlushRows sets how many unflushed tail rows a hot table
// accumulates before the background compactor drains it into a segment.
func (fe *FileEngine) SetSegmentFlushRows(n int64) {
	if n > 0 {
		fe.seg.flushRows.Store(n)
	}
}

// --- mutation tracking (called with the DB write lock held) ---

func (st *segState) note(m *mutation) {
	sg := st.tables[m.table]
	if sg == nil {
		return
	}
	switch m.op {
	case opInsert:
		if m.id <= sg.watermark.Load() {
			// Row-ID reuse below the watermark (transaction rollback
			// compensation): the flushed image may now be stale.
			sg.dirty.Store(true)
			return
		}
		st.notePK(sg, m.row)
		sg.pending = append(sg.pending, m.id)
		sg.pendingN.Add(1)
	case opUpdate, opDelete:
		if m.id <= sg.watermark.Load() || (sg.flushingMax.Load() > 0 && m.id <= sg.flushingMax.Load()) {
			sg.dirty.Store(true)
		}
	case opDropTable:
		sg.pending = nil
		sg.pendingN.Store(0)
		if sg.watermark.Load() > 0 {
			sg.dirty.Store(true)
		}
	}
}

func (st *segState) notePK(sg *segTable, row Row) {
	t := st.fe.tables[sg.name]
	if t == nil || len(t.pkCols) == 0 {
		sg.unordered.Store(true)
		return
	}
	v := row[t.pkCols[0]]
	if v.Kind() != KindInt {
		sg.unordered.Store(true)
		return
	}
	pk := v.Int64()
	if sg.havePK && pk < sg.lastPK {
		sg.unordered.Store(true)
	}
	if !sg.havePK || pk > sg.lastPK {
		sg.lastPK = pk
		sg.havePK = true
	}
}

// markDirtyBelow poisons the scan path when recovery replaces or
// removes a row at or below the table's flushed watermark.
func (st *segState) markDirtyBelow(table string, id int64) {
	if sg := st.tables[table]; sg != nil && id <= sg.watermark.Load() {
		sg.dirty.Store(true)
	}
}

// resetTable forgets a hot table's segments entirely (recovery replay
// of a DROP TABLE: the rows they held died with the table).
func (st *segState) resetTable(table string) {
	sg := st.tables[table]
	if sg == nil {
		return
	}
	st.mu.Lock()
	sg.segs = nil
	sg.segRows, sg.segBytes = 0, 0
	st.mu.Unlock()
	sg.watermark.Store(0)
	sg.maxPK.Store(0)
	sg.dirty.Store(false)
	sg.unordered.Store(false)
	sg.pending = nil
	sg.pendingN.Store(0)
	sg.lastPK, sg.havePK = 0, false
}

// maybeNotify wakes the compactor when any hot table's tail crossed the
// flush threshold. Non-blocking; safe under the DB lock.
func (st *segState) maybeNotify() {
	thr := st.flushRows.Load()
	for _, sg := range st.tables {
		if sg.pendingN.Load() >= thr {
			select {
			case st.notify <- struct{}{}:
			default:
			}
			return
		}
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
		if err := st.compact(st.flushRows.Load()); errors.Is(err, errCompactBusy) {
			// A write batch was open; retry shortly.
			select {
			case <-st.stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			select {
			case st.notify <- struct{}{}:
			default:
			}
		}
	}
}

func (st *segState) shutdown() {
	st.stopOnce.Do(func() {
		close(st.stop)
		<-st.done
	})
}

// CompactSegments synchronously drains every hot table's unflushed tail
// into columnar segments, regardless of the flush threshold. It returns
// errCompactBusy semantics as an error if a write batch is open.
func (fe *FileEngine) CompactSegments() error { return fe.seg.compact(1) }

// compact runs one compaction pass over every hot table whose tail has
// at least min rows, then rewrites the manifest once.
func (st *segState) compact(min int64) error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	wrote := false
	for _, name := range segmentHotTables {
		sg := st.tables[name]
		if sg.pendingN.Load() < min {
			continue
		}
		did, err := st.compactTable(sg)
		if err != nil {
			return err
		}
		wrote = wrote || did
	}
	if !wrote {
		return nil
	}
	st.compactions.Add(1)
	return st.writeManifest()
}

// compactTable flushes one table's tail into a new segment file:
// collect under the DB lock, fsync the WAL (truth first), encode and
// fsync the segment outside the lock, then publish watermark + segment
// atomically with respect to readers. Requires compactMu.
func (st *segState) compactTable(sg *segTable) (bool, error) {
	fe := st.fe

	fe.mu.Lock()
	if fe.batchDepth > 0 {
		fe.mu.Unlock()
		return false, errCompactBusy
	}
	if err := fe.walW.flush(); err != nil {
		fe.mu.Unlock()
		return false, err
	}
	t := fe.tables[sg.name]
	if t == nil {
		sg.pending = nil
		sg.pendingN.Store(0)
		fe.mu.Unlock()
		return false, nil
	}
	w := sg.watermark.Load()
	taken := sg.pending
	sg.pending = nil
	sg.pendingN.Store(0)
	seen := make(map[int64]struct{}, len(taken))
	ids := make([]int64, 0, len(taken))
	rows := make([]Row, 0, len(taken))
	maxID := int64(0)
	for _, id := range taken {
		if id <= w {
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		row, ok := t.rows[id]
		if !ok {
			continue // deleted before it was ever flushed
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
		rows = append(rows, row)
		if id > maxID {
			maxID = id
		}
	}
	if len(ids) == 0 {
		fe.mu.Unlock()
		return false, nil
	}
	sg.flushingMax.Store(maxID)
	prevMaxPK := sg.maxPK.Load()
	hadSegs := sg.watermark.Load() > 0
	fe.mu.Unlock()

	requeue := func() {
		fe.mu.Lock()
		sg.flushingMax.Store(0)
		sg.pending = append(ids, sg.pending...)
		sg.pendingN.Store(int64(len(sg.pending)))
		fe.mu.Unlock()
	}

	// WAL is truth: its records must be durable before the segment that
	// mirrors them can ever be referenced.
	if err := fe.wal.Sync(); err != nil {
		requeue()
		return false, err
	}
	seg, err := buildSegment(t, ids, rows)
	if err != nil {
		requeue()
		return false, err
	}
	st.nextSeq++
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%s-%08d.seg", sg.name, st.nextSeq))
	if err := writeSegmentFile(path, seg); err != nil {
		requeue()
		return false, err
	}

	fe.mu.Lock()
	if hadSegs && seg.minPK <= prevMaxPK {
		sg.unordered.Store(true)
	}
	st.mu.Lock()
	sg.watermark.Store(maxID)
	if seg.maxPK > sg.maxPK.Load() {
		sg.maxPK.Store(seg.maxPK)
	}
	sg.flushingMax.Store(0)
	sg.segs = append(sg.segs, seg)
	sg.segRows += int64(seg.rows)
	sg.segBytes += seg.sizeOn
	st.mu.Unlock()
	fe.mu.Unlock()
	st.segsWritten.Add(1)
	return true, nil
}

// --- manifest ---

// writeManifest atomically rewrites the manifest listing the live
// segment files per table. Safe with or without the DB lock held.
func (st *segState) writeManifest() error {
	type entry struct {
		name  string
		files []string
	}
	st.mu.RLock()
	entries := make([]entry, 0, len(segmentHotTables))
	for _, name := range segmentHotTables {
		sg := st.tables[name]
		e := entry{name: name}
		for _, s := range sg.segs {
			e.files = append(e.files, filepath.Base(s.file))
		}
		entries = append(entries, e)
	}
	st.mu.RUnlock()

	err := replaceFile(filepath.Join(st.dir, manifestFile), func(rw *recordWriter) error {
		hdr := putUvarint(nil, 1) // version
		hdr = putVarint(hdr, st.nextSeq)
		if err := rw.writeRecord(hdr); err != nil {
			return err
		}
		for _, e := range entries {
			p := putString(nil, e.name)
			p = putUvarint(p, uint64(len(e.files)))
			for _, file := range e.files {
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
	return nil
}

// load reads the manifest and its segment files, registering each
// segment and inserting its rows into tables that already exist (from
// the snapshot). Rows of tables created after the last checkpoint are
// still fully present in the WAL and arrive during replay. Runs after
// loadSnapshot and before replayWAL.
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
	for {
		payload, err := rr.readRecord()
		if err != nil {
			if errors.Is(err, ErrCorruptLog) {
				return fmt.Errorf("reldb: manifest: %w", err)
			}
			break // io.EOF
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
		sg := st.tables[name]
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
			if sg == nil {
				continue // table no longer hot; orphan cleanup removes it
			}
			if err := st.loadSegmentRows(name, seg); err != nil {
				return err
			}
			sg.segs = append(sg.segs, seg)
			sg.segRows += int64(seg.rows)
			sg.segBytes += seg.sizeOn
			if seg.maxRowID > sg.watermark.Load() {
				sg.watermark.Store(seg.maxRowID)
			}
			if seg.maxPK > sg.maxPK.Load() {
				sg.maxPK.Store(seg.maxPK)
			}
		}
	}
	return nil
}

// loadSegmentRows reinserts a segment's rows into the B-tree under
// their original row IDs. Rows already present (the snapshot is newer,
// e.g. after a crash between snapshot rename and manifest rewrite) are
// skipped: later recovery layers win.
func (st *segState) loadSegmentRows(table string, seg *segment) error {
	fe := st.fe
	fe.mu.Lock()
	defer fe.mu.Unlock()
	t, ok := fe.tables[table]
	if !ok {
		return nil
	}
	for i := 0; i < seg.rows; i++ {
		id := seg.rowIDs[i]
		if _, exists := t.rows[id]; exists {
			continue
		}
		if err := t.insertAtLocked(id, seg.row(i)); err != nil {
			return fmt.Errorf("reldb: segment %s: %w", seg.file, err)
		}
	}
	return nil
}

// initAfterRecovery rebuilds the in-memory tail bookkeeping (pending
// row IDs, last-PK high-water mark, ordering flags) after the snapshot,
// segments, and WAL have all been applied, then starts from a
// consistent state.
func (st *segState) initAfterRecovery() {
	fe := st.fe
	fe.mu.Lock()
	defer fe.mu.Unlock()
	for _, name := range segmentHotTables {
		sg := st.tables[name]
		t := fe.tables[name]
		if t == nil {
			st.mu.Lock()
			sg.segs = nil
			sg.segRows, sg.segBytes = 0, 0
			st.mu.Unlock()
			sg.watermark.Store(0)
			sg.maxPK.Store(0)
			continue
		}
		intPK := len(t.pkCols) > 0 && t.schema.Columns[t.pkCols[0]].Type == KindInt
		if !intPK && len(sg.segs) > 0 {
			sg.unordered.Store(true)
		}
		for i := 1; i < len(sg.segs); i++ {
			if sg.segs[i].minPK <= sg.segs[i-1].maxPK {
				sg.unordered.Store(true)
			}
		}
		w := sg.watermark.Load()
		maxPK := sg.maxPK.Load()
		ids := make([]int64, 0)
		for id := range t.rows {
			if id > w {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		sg.pending = ids
		sg.pendingN.Store(int64(len(ids)))
		if intPK {
			pkc := t.pkCols[0]
			last := maxPK
			have := len(sg.segs) > 0
			for _, id := range ids {
				pk := t.rows[id][pkc].Int64()
				if len(sg.segs) > 0 && pk <= maxPK {
					sg.unordered.Store(true)
				}
				if !have || pk > last {
					last = pk
					have = true
				}
			}
			sg.lastPK = last
			sg.havePK = have
		}
	}
}

// cleanOrphans removes segment files not referenced by any live
// segment — leftovers of crashed compactions or checkpoint drops.
func (st *segState) cleanOrphans() {
	live := make(map[string]bool)
	st.mu.RLock()
	for _, sg := range st.tables {
		for _, s := range sg.segs {
			live[filepath.Base(s.file)] = true
		}
	}
	st.mu.RUnlock()
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

// resetStaleLocked drops the segments of every dirty or unordered hot
// table so the checkpoint snapshot captures those tables in full and
// the next compaction rebuilds their segments from a clean, sorted
// slate. Called with the DB write lock and compactMu held; returns the
// dropped files for deletion after the manifest and WAL are rewritten.
func (st *segState) resetStaleLocked() []string {
	var dropped []string
	for _, name := range segmentHotTables {
		sg := st.tables[name]
		if !sg.dirty.Load() && !sg.unordered.Load() {
			continue
		}
		st.mu.Lock()
		for _, s := range sg.segs {
			dropped = append(dropped, s.file)
		}
		sg.segs = nil
		sg.segRows, sg.segBytes = 0, 0
		sg.watermark.Store(0)
		sg.maxPK.Store(0)
		st.mu.Unlock()
		sg.dirty.Store(false)
		sg.unordered.Store(false)
		// With the watermark reset, every row is tail again: queue the
		// full table so the next compaction writes one sorted segment.
		t := st.fe.tables[name]
		if t == nil {
			sg.pending = nil
			sg.pendingN.Store(0)
			sg.lastPK, sg.havePK = 0, false
			continue
		}
		ids := make([]int64, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		sg.pending = ids
		sg.pendingN.Store(int64(len(ids)))
		if len(t.pkCols) > 0 && t.schema.Columns[t.pkCols[0]].Type == KindInt {
			pkc := t.pkCols[0]
			last, have := int64(0), false
			for _, row := range t.rows {
				if pk := row[pkc].Int64(); !have || pk > last {
					last, have = pk, true
				}
			}
			sg.lastPK, sg.havePK = last, have
		}
	}
	return dropped
}

// --- read-side view ---

// segView is a consistent snapshot of one table's columnar segments.
// Segments are immutable, so the view stays valid for the duration of a
// scan even while the compactor publishes new ones.
type segView struct {
	segs      []*segment
	watermark int64 // max flushed row ID: rows above it live only in the B-tree
	maxPK     int64 // max flushed first-PK value; every tail row's PK is >= it
	rows      int64
}

// view returns the current columnar view of a hot table, or ok=false
// when the table keeps no segments or the scan path is disabled (dirty
// or unordered state, or nothing flushed yet).
func (st *segState) view(table string) (*segView, bool) {
	sg := st.tables[table]
	if sg == nil || sg.dirty.Load() || sg.unordered.Load() {
		return nil, false
	}
	st.mu.RLock()
	v := &segView{
		segs:      sg.segs,
		watermark: sg.watermark.Load(),
		maxPK:     sg.maxPK.Load(),
		rows:      sg.segRows,
	}
	st.mu.RUnlock()
	if len(v.segs) == 0 || sg.dirty.Load() || sg.unordered.Load() {
		return nil, false
	}
	return v, true
}

// blocksPKRange returns the blocks of every segment whose
// first-primary-key zone map intersects [lo, hi], in flush (= ascending
// PK) order, plus the count of segments pruned without touching their
// columns and the decoded bytes the survivors hold.
func (v *segView) blocksPKRange(lo, hi int64) (blocks []*ColumnBlock, pruned int, bytes int64) {
	for _, s := range v.segs {
		if s.maxPK < lo || s.minPK > hi {
			pruned++
			continue
		}
		bytes += s.decodedBytes()
		blocks = append(blocks, &s.ColumnBlock)
	}
	return blocks, pruned, bytes
}

// --- stats ---

// SegmentTableStatus describes one hot table's segment state.
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
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, name := range segmentHotTables {
		sg := st.tables[name]
		out.Tables = append(out.Tables, SegmentTableStatus{
			Table:       name,
			Segments:    len(sg.segs),
			Rows:        sg.segRows,
			Bytes:       sg.segBytes,
			PendingRows: sg.pendingN.Load(),
			Watermark:   sg.watermark.Load(),
			Dirty:       sg.dirty.Load(),
			Unordered:   sg.unordered.Load(),
		})
	}
	return out
}

// segmentBytes sums on-disk segment bytes across hot tables.
func (st *segState) segmentBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n int64
	for _, sg := range st.tables {
		n += sg.segBytes
	}
	return n
}
