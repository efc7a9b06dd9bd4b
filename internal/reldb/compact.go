package reldb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The engine keeps one resident copy of every row, and keeps it columnar
// from the moment the row is committed (Table's doc comment has the read
// side): the unflushed rows are a tail, a segment with no file yet. A
// commit that leaves a table's tail at or above the flush threshold seals
// it — installs its narrowed copy (integers at their least widths,
// permutations shared) and an empty tail; the background compactor
// encodes the sealed block as it stands into an immutable segment file
// and publishes that same object as a segment, O(1). Nothing is
// transposed, deleted row by row or re-inserted, at run time or at
// recovery. A change to a block is a replacement block
// (Table.replaceLocked), which the next pass writes like a sealed tail.
//
// A row is durable in exactly one place: the commit log, from its commit
// until a pass's manifest names the segment file holding it; a delete
// likewise, then in the replacement's file. Each pass starts a new log
// file that carries the active tails forward, and once its manifest names
// that file the older ones are deleted. The barrier before a manifest and
// the pass counted last make the deletion safe (DESIGN §9).

const (
	segmentSubdir = "segments"
	manifestFile  = "MANIFEST"
	// manifestVersion is the one format version this program reads and
	// writes: the manifest states it, and an open refuses every other
	// (ErrFormat). 8 says the segments are format 2 and every commit and
	// DDL statement is a group of the one numbered commit log.
	manifestVersion = 8
	defaultSegFlush = 4096
)

// segState is the engine's compaction state; what each table has sealed
// and flushed lives on the Table, under the engine lock.
type segState struct {
	db  *DB
	dir string

	compactMu sync.Mutex // serializes compaction passes and checkpoints
	nextSeq   int64      // under compactMu
	low       int64      // the low-water log file the last durable manifest names; under compactMu

	flushRows   atomic.Int64
	compactions atomic.Uint64 // compaction passes that have deleted the log files their manifest made dead (rule 2)
	segsWritten atomic.Uint64 // segment files written

	// Guarded by the engine lock.
	loaded  map[string][]*segment // recovery: manifest-listed segments, by table, until replay ends
	garbage []string              // files of replaced segments, removed after the next manifest write
	nextLog int64                 // the number of the next log file

	step func(string) // tests: called after each durable step of a pass or checkpoint

	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newSegState(db *DB) *segState {
	st := &segState{
		db:     db,
		dir:    filepath.Join(db.dir, segmentSubdir),
		loaded: make(map[string][]*segment),
		low:    1,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	st.flushRows.Store(defaultSegFlush)
	return st
}

func (st *segState) stepped(name string) {
	if st.step != nil {
		st.step(name)
	}
}

// SetSegmentFlushRows sets how many unflushed tail rows a table
// accumulates before a commit seals them for the compactor.
func (db *DB) SetSegmentFlushRows(n int64) {
	if n > 0 {
		db.seg.flushRows.Store(n)
	}
}

// --- sealing (engine write lock held) ---

// sealReadyLocked seals — moves a pointer — every table's tail that
// holds at least atLeast rows, has no sealed tail waiting and no open
// transaction holding row IDs of the table, then wakes the compactor if
// any table has a block to write. It reports whether some table is full
// behind a sealed tail: at the threshold too, and not sealable until the
// pass in flight publishes.
func (st *segState) sealReadyLocked(atLeast int64) (full bool) {
	work := false
	for _, t := range st.db.order {
		if n := int64(t.tail.rows); n > 0 && n >= atLeast && t.reserving.Load() == 0 {
			if t.sealed != nil {
				full = true
			} else {
				st.sealLocked(t)
			}
		}
		work = work || t.sealed != nil || slices.ContainsFunc(t.segs, unwritten)
	}
	if work {
		select {
		case st.notify <- struct{}{}:
		default:
		}
	}
	return full
}

// sealLocked freezes the table's tail, installs its narrowed copy as the
// sealed block and starts a new tail. A reader holding a view of the old
// tail keeps reading the wide vectors it pinned.
func (st *segState) sealLocked(t *Table) {
	old := t.tail
	old.freeze(t.pkCols)
	sealed := old.narrowed()
	t.installLocked(sealed, t.newBlock(sealed.maxRowID, 0))
}

func unwritten(s *segment) bool { return s.file == "" }

// adoptLocked makes a segment the table's newest. A published tail keeps
// the permutations it has built; a decoded file starts with none.
func (t *Table) adoptLocked(s *segment) {
	t.segs = append(t.segs, t.withPerms(s))
	t.segDelta(s, 1)
	t.advanceID(s.maxRowID + 1)
}

// segDelta adds a segment's rows and bytes to the table's totals (sign 1)
// or takes them off (-1).
func (t *Table) segDelta(s *segment, sign int64) {
	t.segRows += sign * int64(s.rows)
	t.segBytes += sign * s.sizeOn
	t.segDataBytes += sign * s.decodedBytes()
}

// publishLocked puts seg, the block a pass has just written to path from
// block b, in b's place: a sealed tail becomes the table's newest segment,
// a replacement keeps its position. The files it replaced go once a
// manifest that names seg instead is durable.
func (t *Table) publishLocked(b, seg *segment, path string, size int64) {
	st := t.db.seg
	st.garbage = append(st.garbage, b.replaces...)
	if b != t.sealed {
		t.segDelta(b, -1)
	}
	b.replaces = nil
	seg.file, seg.sizeOn = path, size
	if b == t.sealed {
		t.adoptLocked(seg)
		t.installLocked(nil, t.tail)
		return
	}
	t.segs[slices.Index(t.segs, b)] = t.withPerms(seg)
	t.segDelta(seg, 1)
	t.installLocked(t.sealed, t.tail)
}

// --- background compactor ---

func (st *segState) run() {
	defer close(st.done)
	for {
		// A pass the compactor was woken for runs before a stop is seen, so
		// what Close leaves does not depend on which channel a select picks.
		select {
		case <-st.notify:
		default:
			select {
			case <-st.stop:
				return
			case <-st.notify:
			}
		}
		st.compactMu.Lock()
		// A failed pass leaves its sealed tails in place, still serving
		// reads; the next commit wakes the compactor to retry.
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

// CompactSegments synchronously seals and drains every table's tail into
// columnar segments, whatever the flush threshold.
func (db *DB) CompactSegments() error {
	db.seg.compactMu.Lock()
	defer db.seg.compactMu.Unlock()
	db.mu.RLock()
	err := db.writableLocked()
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	return db.seg.drain(true)
}

// drain runs passes until no block is left to write; with force the
// first one seals every non-empty tail, also one that waits behind a
// sealed tail. Requires compactMu.
func (st *segState) drain(force bool) error {
	for ; ; force = false {
		if worked, err := st.pass(force, false); err != nil || !worked {
			return err
		}
	}
}

// pass writes and publishes the blocks that wait for it — sealed tails
// and the replacements deletes made — and reports whether there were
// any; with none it does nothing, unless rotate is set. Under the engine
// lock that collects the blocks it starts a new log file
// (rotateLocked), whose carry holds every row but theirs that no
// manifest's segment does. Then comes the barrier (rule 1): every log
// file's bytes no fsync covers, the carry's included, and the log
// directory are fsynced, so that no segment is named before what its rows
// refer to is durable. It then writes a segment file per block outside
// the engine lock and publishes it under the lock (publishLocked),
// sealing the table's next tail if that has meanwhile crossed the
// threshold (when forced, holds a row). Then the manifest is rewritten,
// naming the new log file as the low-water one, the older log files are
// deleted, and only then is the pass counted (rule 2). Requires
// compactMu, which a commit that deletes holds too: no block is replaced
// under a pass.
func (st *segState) pass(force, rotate bool) (worked bool, err error) {
	db := st.db
	type job struct {
		t *Table
		b *segment
	}
	var jobs []job
	db.mu.Lock()
	if err := db.refused; err != nil {
		db.mu.Unlock()
		return false, err
	}
	atLeast := st.flushRows.Load()
	if force {
		atLeast = 1
		st.sealReadyLocked(atLeast)
	}
	for _, t := range db.order {
		for _, s := range t.segs {
			if unwritten(s) {
				jobs = append(jobs, job{t, s})
			}
		}
		if t.sealed != nil {
			jobs = append(jobs, job{t, t.sealed})
		}
	}
	if len(jobs) == 0 && !rotate {
		db.mu.Unlock()
		return false, nil
	}
	err = db.rotateLocked()
	low, dead := db.log.seq, db.oldLogs
	var unsynced []logMark
	for _, l := range db.liveLogsLocked() {
		if l.size > l.synced {
			unsynced = append(unsynced, logMark{l, l.size})
		}
	}
	db.mu.Unlock()
	if err != nil {
		return false, err
	}
	st.stepped("rotate")
	if err := db.syncLogs(unsynced); err != nil {
		return false, db.refuse(err)
	}
	st.stepped("barrier")
	for _, j := range jobs {
		seg, path, size, err := st.writeSegment(j.t, j.b)
		if err != nil {
			return false, db.refuse(err)
		}
		db.mu.Lock()
		j.t.publishLocked(j.b, seg, path, size)
		st.segsWritten.Add(1)
		st.sealReadyLocked(atLeast)
		db.mu.Unlock()
		st.stepped("segment file")
	}
	db.mu.Lock()
	m, garbage := st.manifestLocked(low)
	db.mu.Unlock()
	if err := st.writeManifest(m, garbage); err != nil {
		return false, db.refuse(err)
	}
	st.low = low
	st.stepped("manifest")
	db.mu.Lock()
	db.oldLogs = nil // appended to under compactMu only
	for _, l := range dead {
		db.logTrimmed += uint64(l.size)
	}
	db.mu.Unlock()
	db.discardLogs(dead)
	st.stepped("log removal")
	st.compactions.Add(1)
	return len(jobs) > 0, nil
}

// awaitPass is what a committer does when its commit finds a table full
// behind a sealed tail: it waits, outside the engine lock, for the pass
// that publishes that tail — running it here if the compactor has not got
// to it — and publication seals the full one. The tail is thereby bounded
// by rule, at two thresholds and a commit, and where a segment ends
// depends on the sequence of commits alone.
func (st *segState) awaitPass() error {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	_, err := st.pass(false, false)
	return err
}

// syncLogs fsyncs the marked log files and their directory, outside the
// engine lock, and records how much of each file is now durable.
func (db *DB) syncLogs(marks []logMark) error {
	for _, m := range marks {
		if err := synced(m.l.f.Sync()); err != nil {
			return fmt.Errorf("reldb: sync %s: %w", m.l.path, err)
		}
	}
	if err := synced(db.fsys.SyncDir(db.seg.dir)); err != nil {
		return fmt.Errorf("reldb: sync %s: %w", db.seg.dir, err)
	}
	db.mu.Lock()
	for _, m := range marks {
		m.l.synced = max(m.l.synced, m.size)
	}
	db.mu.Unlock()
	return nil
}

// writeSegment encodes a sealed tail or a replacement as it stands —
// through its key order, if its rows do not lie that way — into a new
// fsynced segment file, and returns the block the file holds: the block
// itself, or the sorted copy.
func (st *segState) writeSegment(t *Table, b *segment) (seg *segment, path string, size int64, err error) {
	if seg, err = b.inKeyOrder(t); err != nil {
		return nil, "", 0, err
	}
	st.nextSeq++
	path = filepath.Join(st.dir, fmt.Sprintf("seg-%s-%08d.seg", seg.table, st.nextSeq))
	size, err = writeSegmentFile(st.db.fsys, path, seg)
	return seg, path, size, err
}

// --- manifest ---

// manifest is what the MANIFEST file says after its version and the
// next segment number: the low-water log file, below which every log file
// is dead, and per table the segment files that hold its rows, in row-ID
// order.
type manifest struct {
	low    int64
	tables []string
	files  [][]string
}

// manifestLocked returns what the next manifest says — low, and each
// table's segment files: a written block's own, in its place the files an
// unwritten replacement replaces — and takes the released segment files
// it thereby stops referencing.
func (st *segState) manifestLocked(low int64) (m manifest, garbage []string) {
	m.low = low
	for _, t := range st.db.order {
		var list []string
		for _, s := range t.blocks {
			for _, path := range s.files() {
				list = append(list, filepath.Base(path))
			}
		}
		m.tables, m.files = append(m.tables, t.schema.Name), append(m.files, list)
	}
	garbage, st.garbage = st.garbage, nil
	return m, garbage
}

// writeManifest atomically rewrites the manifest and then deletes the
// garbage it no longer names. Requires compactMu.
func (st *segState) writeManifest(m manifest, garbage []string) error {
	buf := appendRecord(nil, putVarint(putVarint(putUvarint(nil, manifestVersion), st.nextSeq), m.low))
	for i, name := range m.tables {
		p := putUvarint(putString(nil, name), uint64(len(m.files[i])))
		for _, file := range m.files[i] {
			p = putString(p, file)
		}
		buf = appendRecord(buf, p)
	}
	if err := replaceFile(st.db.fsys, filepath.Join(st.dir, manifestFile), buf); err != nil {
		return fmt.Errorf("reldb: write manifest: %w", err)
	}
	for _, path := range garbage {
		st.db.fsys.Remove(path) // best effort; open-time cleanup catches leftovers
	}
	return nil
}

// load reads the manifest and decodes the segment files it lists into
// st.loaded, which attachLocked hands each table as recovery creates it.
// A manifest of another version is refused with ErrFormat, and so is a
// directory without one that is not fresh (checkFresh). It only reads.
func (st *segState) load() error {
	f, err := st.db.fsys.Open(filepath.Join(st.dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return st.db.checkFresh()
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
	if version := hp.uvarint(); hp.err == nil && version != manifestVersion {
		return st.db.formatError(version)
	}
	nextSeq, low := hp.varint(), hp.varint()
	if hp.err != nil {
		return fmt.Errorf("reldb: manifest: %w", hp.err)
	}
	st.nextSeq, st.low = nextSeq, low
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("reldb: manifest: %w", err)
		}
		p := &payloadReader{buf: payload}
		name, files := p.str(), make([]string, p.count())
		for i := range files {
			files[i] = p.str()
		}
		if p.err != nil {
			return fmt.Errorf("reldb: manifest: %w", p.err)
		}
		for _, file := range files {
			seg, err := readSegmentFile(st.db.fsys, filepath.Join(st.dir, file))
			if err != nil {
				return err
			}
			if seg.table != name {
				return fmt.Errorf("%w: segment %s holds table %q, manifest says %q",
					ErrCorruptSegment, file, seg.table, name)
			}
			st.loaded[name] = append(st.loaded[name], seg)
		}
	}
}

// attachLocked hands a table recovery has just created the segments the
// manifest lists for it, before its empty tail, without inserting a row:
// its next row ID moves past them.
func (st *segState) attachLocked(t *Table) error {
	segs := st.loaded[t.schema.Name]
	delete(st.loaded, t.schema.Name)
	for _, s := range segs {
		if !s.matches(t.schema) {
			return fmt.Errorf("%w: segment %s does not match the schema of table %q",
				ErrCorruptSegment, s.file, s.table)
		}
		t.adoptLocked(s)
		t.tail.maxRowID = max(t.tail.maxRowID, s.maxRowID)
	}
	t.installLocked(nil, t.tail)
	return nil
}

// cleanOrphans removes segment files the manifest does not list —
// leftovers of crashed compactions or released segments.
func (st *segState) cleanOrphans(m manifest) {
	live := make(map[string]bool)
	for _, list := range m.files {
		for _, file := range list {
			live[file] = true
		}
	}
	names, err := st.db.fsys.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if name == manifestFile || live[name] {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			st.db.fsys.Remove(filepath.Join(st.dir, name))
		}
	}
}

// --- stats ---

// SegmentTableStatus describes one table's segment state. Segments
// counts replacements not yet written, PendingRows the rows in no segment
// (the sealed and active tails).
type SegmentTableStatus struct {
	Table       string `json:"table"`
	Segments    int    `json:"segments"`
	Rows        int64  `json:"rows"`
	Bytes       int64  `json:"bytes"`
	PendingRows int64  `json:"pending_rows"`
	Watermark   int64  `json:"watermark"`
}

// SegmentStats summarizes the engine's compaction state.
type SegmentStats struct {
	Enabled         bool   `json:"enabled"` // always true; kept on the wire for /v1/stats readers
	FlushRows       int64  `json:"flush_rows"`
	Compactions     uint64 `json:"compactions"`
	SegmentsWritten uint64 `json:"segments_written"`
	// Log bytes ever appended, carries included, and ever deleted or
	// truncated away; wal_bytes is what is live.
	LogBytesAppended uint64               `json:"log_bytes_appended"`
	LogBytesTrimmed  uint64               `json:"log_bytes_trimmed"`
	Tables           []SegmentTableStatus `json:"tables,omitempty"`
}

// SegmentStats reports compaction status, of each table that holds rows.
func (db *DB) SegmentStats() SegmentStats {
	st := db.seg
	out := SegmentStats{
		Enabled:         true,
		FlushRows:       st.flushRows.Load(),
		Compactions:     st.compactions.Load(),
		SegmentsWritten: st.segsWritten.Load(),
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out.LogBytesAppended, out.LogBytesTrimmed = db.logAppended, db.logTrimmed
	for _, t := range db.order {
		status := SegmentTableStatus{Table: t.schema.Name, Segments: len(t.segs), Rows: t.segRows,
			Bytes: t.segBytes, PendingRows: t.lenLocked() - t.segRows}
		if len(t.segs) > 0 {
			status.Watermark = t.segs[len(t.segs)-1].maxRowID
		}
		if status.Rows+status.PendingRows > 0 {
			out.Tables = append(out.Tables, status)
		}
	}
	return out
}
