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
	"sort"
	"strconv"
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
// A row is durable in exactly one place: the tail log of the tail that
// holds it, then — once the segment file is fsynced and a durable
// manifest names it — that segment, at which point the pass deletes the
// tail's logs; a delete, in its tail log, then in the replacement's file.
// Three rules make the deletion safe (DESIGN §9): the barrier before a
// manifest, the pass counted last, and the flush order.

const (
	segmentSubdir = "segments"
	manifestFile  = "MANIFEST"
	// manifestVersion: 1 had no low-water marks; 2 named the three result
	// tables only, 3 six. A program that keeps fewer tables in segments
	// than a manifest names would take the others' segment files for
	// orphans and delete them, so the version moved with the set: such a
	// program refuses the next. 4 may name format-2 segment files, which a
	// program that reads only format 1 refuses as a version, not as corrupt
	// segments. 5 names every table, and says that no row lives in
	// perftrack.snap or perftrack.wal any more: whatever rows they still
	// hold, segments hold too.
	manifestVersion = 5
	defaultSegFlush = 4096
)

// segState is the engine's compaction state; what each table has sealed
// and flushed lives on the Table, under the engine lock.
type segState struct {
	db  *DB
	dir string

	compactMu sync.Mutex // serializes compaction passes and checkpoints
	nextSeq   int64      // under compactMu

	flushRows   atomic.Int64
	compactions atomic.Uint64 // compaction passes that wrote segments and have deleted the logs those supersede (rule 2)
	segsWritten atomic.Uint64 // segment files written

	// Guarded by the engine lock.
	loaded    map[string][]*segment // recovery: manifest-listed segments, by table, until replay ends
	loadedLow map[string]int64      // recovery: the manifest's low-water marks
	garbage   []string              // files of replaced segments, removed after the next manifest write
	logSeq    map[string]int64      // sequence number of each table's next tail log
	retired   []*logFile            // tail logs of published or emptied tails, deleted after the next manifest write

	step func(string) // tests: called after each durable step of a pass or checkpoint

	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newSegState(db *DB) *segState {
	st := &segState{
		db:        db,
		dir:       filepath.Join(db.dir, segmentSubdir),
		loaded:    make(map[string][]*segment),
		loadedLow: make(map[string]int64),
		logSeq:    make(map[string]int64),
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
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
// any table has a block to write. The sealed tail keeps its logs and the
// next record opens a new one. It reports whether some table is full
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
	if k := len(old.logs); k > 0 && old.logs[k-1].finish() != nil {
		return // the log cannot take its buffered records: the tail stays active, the committer's next flush reports it
	}
	old.freeze(t.pkCols)
	sealed := old.narrowed()
	t.installLocked(sealed, t.newBlock(sealed.maxRowID, 0))
}

func unwritten(s *segment) bool { return s.file == "" }

// tailLogLocked returns the tail log the table's next record goes to:
// the last one its active tail owns while that still takes records, else
// a new one under the table's next sequence number.
func (st *segState) tailLogLocked(t *Table) (*logFile, error) {
	if n := len(t.tail.logs); n > 0 && !t.tail.logs[n-1].finished {
		return t.tail.logs[n-1], nil
	}
	name := t.schema.Name
	seq := st.logSeq[name]
	l, err := openLog(st.db.fsys, st.tailLogPath(name, seq), seq, 0)
	if err != nil {
		return nil, fmt.Errorf("reldb: open tail log: %w", err)
	}
	if st.db.syncWAL {
		if err := synced(st.db.fsys.SyncDir(st.dir)); err != nil { // the commit's fsync must not outlive the file's name
			st.db.discardLogs([]*logFile{l})
			return nil, err
		}
	}
	st.logSeq[name] = seq + 1
	t.tail.logs = append(t.tail.logs, l)
	return l, nil
}

func (st *segState) tailLogPath(table string, seq int64) string {
	return filepath.Join(st.dir, fmt.Sprintf("tail-%s-%08d.log", table, seq))
}

// parseTailLogName undoes tailLogPath on a file's base name.
func parseTailLogName(base string) (table string, seq int64, ok bool) {
	base, ok = strings.CutSuffix(base, ".log")
	cut := strings.LastIndexByte(base, '-')
	if !ok || !strings.HasPrefix(base, "tail-") || cut < len("tail-") {
		return "", 0, false
	}
	seq, err := strconv.ParseInt(base[cut+1:], 10, 64)
	return base[len("tail-"):cut], seq, err == nil
}

// discardLogsLocked deletes the table's tail logs: it is being dropped.
func (t *Table) discardLogsLocked() {
	for _, s := range t.tailsLocked() {
		if len(s.logs) > 0 {
			t.db.logTrimmed += t.db.discardLogs(s.logs)
			s.logs = nil
		}
	}
}

// lowWaterLocked is the sequence number below which no tail log of the
// table is needed: the lowest one its unflushed rows own, or the next to
// be assigned.
func (t *Table) lowWaterLocked() int64 {
	if logs := t.logsLocked(); len(logs) > 0 {
		return logs[0].seq
	}
	return t.db.seg.logSeq[t.schema.Name]
}

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
// a replacement keeps its position. b's logs and the files it replaced
// go once a manifest that names seg instead is durable.
func (t *Table) publishLocked(b, seg *segment, path string, size int64) {
	st := t.db.seg
	st.garbage, st.retired = append(st.garbage, b.replaces...), append(st.retired, b.logs...)
	if b != t.sealed {
		t.segDelta(b, -1)
	}
	b.logs, b.replaces = nil, nil
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
		if worked, err := st.pass(force); err != nil || !worked {
			return err
		}
	}
}

// pass writes and publishes the blocks that wait for it — sealed tails
// and the replacements deletes made — and reports whether there were
// any. It starts with the barrier (rule 1): every log, the sealed tails'
// own included, and the tail-log directory are fsynced, so that no
// segment is named before what its rows refer to is durable. It then
// writes a segment file per block outside the engine lock and publishes
// it under the lock (publishLocked), sealing the table's next tail if
// that has meanwhile crossed the threshold (when forced, holds a row).
// Then the manifest is rewritten, the retired logs are deleted, and only
// then is the pass counted (rule 2). Requires compactMu, which a commit
// that deletes holds too: no block is replaced under a pass, and every
// replacement older than a retired log's delete records is written.
func (st *segState) pass(force bool) (worked bool, err error) {
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
	var unsynced []logMark
	if len(jobs) > 0 {
		unsynced, err = db.flushLogsLocked()
	}
	db.mu.Unlock()
	if err != nil || len(jobs) == 0 {
		return false, err
	}
	st.stepped("seal")
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
	m, garbage := st.manifestLocked()
	retired := st.retired
	db.mu.Unlock()
	if err := st.writeManifest(m, garbage); err != nil {
		return false, db.refuse(err)
	}
	st.stepped("manifest")
	trimmed := db.discardLogs(retired)
	db.mu.Lock()
	st.retired = nil // appended to under compactMu only
	db.logTrimmed += trimmed
	db.mu.Unlock()
	st.stepped("log removal")
	st.compactions.Add(1)
	return true, nil
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
	_, err := st.pass(false)
	return err
}

// flushLogsLocked flushes every log still taking records and marks the
// logs a pass must fsync — perftrack.wal and the tail logs the tables'
// unflushed rows own — where they hold bytes no fsync covers.
func (db *DB) flushLogsLocked() (unsynced []logMark, err error) {
	for _, l := range db.openLogsLocked() {
		if err := l.flush(); err != nil {
			return nil, err
		}
	}
	for _, l := range append(db.tailLogsLocked(), db.wal) {
		if l.size > l.synced {
			unsynced = append(unsynced, logMark{l, l.size})
		}
	}
	return unsynced, nil
}

// syncLogs fsyncs the marked logs and the directory of the tail logs,
// outside the engine lock, and records how much of each log is now
// durable.
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

// manifest is what the MANIFEST file says, after its version: per table,
// the segment files that hold its rows, in row-ID order, and the
// low-water mark below which its tail logs are dead — the files hold
// their rows.
type manifest struct {
	tables   []string
	files    [][]string
	lowWater []int64
}

// manifestLocked returns what the next manifest says — each table's
// segment files: a written block's own, in its place the files an
// unwritten replacement replaces; and the lowest tail log the table's
// unflushed rows own — and takes the released segment files it thereby
// stops referencing.
func (st *segState) manifestLocked() (m manifest, garbage []string) {
	for _, t := range st.db.order {
		var list []string
		for _, s := range t.blocks {
			for _, path := range s.files() {
				list = append(list, filepath.Base(path))
			}
		}
		m.tables, m.files, m.lowWater = append(m.tables, t.schema.Name), append(m.files, list), append(m.lowWater, t.lowWaterLocked())
	}
	garbage, st.garbage = st.garbage, nil
	return m, garbage
}

// writeManifest atomically rewrites the manifest and then deletes the
// garbage it no longer names. Requires compactMu.
func (st *segState) writeManifest(m manifest, garbage []string) error {
	buf := appendRecord(nil, putVarint(putUvarint(nil, manifestVersion), st.nextSeq))
	for i, name := range m.tables {
		p := putUvarint(putString(nil, name), uint64(len(m.files[i])))
		for _, file := range m.files[i] {
			p = putString(p, file)
		}
		buf = appendRecord(buf, putVarint(p, m.lowWater[i]))
	}
	if err := replaceFile(st.db.fsys, filepath.Join(st.dir, manifestFile), buf); err != nil {
		return fmt.Errorf("reldb: write manifest: %w", err)
	}
	for _, path := range garbage {
		st.db.fsys.Remove(path) // best effort; open-time cleanup catches leftovers
	}
	return nil
}

// load reads the manifest, if there is one, and decodes the segment files
// it lists into st.loaded, which attachLocked hands each table as
// recovery creates it. It returns the manifest's version, 0 without one.
func (st *segState) load() (version uint64, err error) {
	f, err := st.db.fsys.Open(filepath.Join(st.dir, manifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reldb: open manifest: %w", err)
	}
	defer f.Close()
	rr := newRecordReader(f)
	hdr, err := rr.readRecord()
	if err != nil {
		return 0, fmt.Errorf("reldb: manifest: %w", err)
	}
	hp := &payloadReader{buf: hdr}
	version, nextSeq := hp.uvarint(), hp.varint()
	if hp.err != nil {
		return 0, fmt.Errorf("reldb: manifest: %w", hp.err)
	}
	if version > manifestVersion {
		return 0, fmt.Errorf("reldb: manifest: version %d is newer than this program's %d", version, manifestVersion)
	}
	st.nextSeq = nextSeq
	for {
		payload, err := rr.readRecord()
		if err == io.EOF {
			return version, nil
		}
		if err != nil {
			return 0, fmt.Errorf("reldb: manifest: %w", err)
		}
		p := &payloadReader{buf: payload}
		name, files := p.str(), make([]string, p.count())
		for i := range files {
			files[i] = p.str()
		}
		if version >= 2 { // version 1 trimmed nothing: low-water 0
			st.loadedLow[name] = p.varint()
		}
		if p.err != nil {
			return 0, fmt.Errorf("reldb: manifest: %w", p.err)
		}
		for _, file := range files {
			seg, err := readSegmentFile(st.db.fsys, filepath.Join(st.dir, file))
			if err != nil {
				return 0, err
			}
			if seg.table != name {
				return 0, fmt.Errorf("%w: segment %s holds table %q, manifest says %q",
					ErrCorruptSegment, file, seg.table, name)
			}
			st.loaded[name] = append(st.loaded[name], seg)
		}
	}
}

// replayTailLogs ends recovery: it deletes, unread, the tail logs below
// their table's low-water mark (a crash came between a manifest write and
// the removal of the logs it superseded) and those of tables that no
// longer exist, replays the rest table by table in sequence order, and
// hands them to each table's active tail, which now holds their rows. The
// next record opens a new log.
func (st *segState) replayTailLogs() error {
	names, err := st.db.fsys.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("reldb: open %s: %w", st.dir, err)
	}
	logs := make(map[string][]*logFile)
	for _, name := range names {
		if !strings.HasPrefix(name, "tail-") {
			continue
		}
		table, seq, ok := parseTailLogName(name)
		if !ok {
			return fmt.Errorf("reldb: %s is not a tail log", filepath.Join(st.dir, name))
		}
		logs[table] = append(logs[table], &logFile{path: filepath.Join(st.dir, name), seq: seq})
		st.logSeq[table] = max(st.logSeq[table], seq+1)
	}
	for name, low := range st.loadedLow {
		st.logSeq[name] = max(st.logSeq[name], low)
	}
	tables := make([]string, 0, len(logs))
	for name := range logs {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	for _, name := range tables {
		t := st.db.tables[name]
		slices.SortFunc(logs[name], func(a, b *logFile) int { return cmp.Compare(a.seq, b.seq) })
		for _, l := range logs[name] {
			if t == nil || l.seq < st.loadedLow[name] {
				st.db.fsys.Remove(l.path)
				continue
			}
			l.size, err = st.db.replayLog(l.path, func(m *mutation) error {
				if !m.isRowOp() || m.table != name {
					return fmt.Errorf("%w: a tail log of %q holds op %d on %q", ErrCorruptLog, name, m.op, m.table)
				}
				st.db.replayedRows++
				return st.db.apply(m)
			})
			if err != nil {
				return err
			}
			if l.f, err = st.db.fsys.Append(l.path); err != nil {
				return fmt.Errorf("reldb: open tail log: %w", err)
			}
			t.tail.logs = append(t.tail.logs, l)
		}
	}
	return nil
}

// attachLocked hands a table recovery has just created the segments the
// manifest lists for it, before its empty tail, without inserting a row:
// its next row ID moves past them, and log replay finds their rows served.
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

// orderLocked ends a table's recovery: it merges all of the table's rows
// into one sealed block, replacing every segment file, if its blocks' row
// IDs do not ascend from block to block — which only a directory an
// older program wrote can make them do. The next pass writes the block.
func (t *Table) orderLocked() {
	last, ordered := int64(math.MinInt64), true
	for _, s := range t.blocks {
		if s.rows > 0 {
			ordered = ordered && s.minRowID > last
			last = s.maxRowID
		}
	}
	if ordered {
		return
	}
	merged := t.newBlock(0, int(t.lenLocked()))
	t.ascendLocked(nil, func(id int64, row Row) bool { merged.appendRow(id, row); return true })
	for _, s := range t.blocks {
		merged.replaces, merged.sizeOn = append(merged.replaces, s.files()...), merged.sizeOn+s.sizeOn
	}
	merged.appended(t.pkCols, 0)
	merged.logs = t.tail.logs
	t.segs, t.segRows, t.segBytes, t.segDataBytes = nil, 0, 0, 0
	t.installLocked(nil, merged)
	t.db.seg.sealLocked(t)
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
	LogBytes    int64  `json:"log_bytes,omitempty"` // the tail logs the table's unflushed rows own, buffered records included
	LogFiles    int    `json:"log_files,omitempty"`
	LowWater    int64  `json:"low_water,omitempty"` // tail logs numbered below it are gone
}

// SegmentStats summarizes the engine's compaction state.
type SegmentStats struct {
	Enabled         bool   `json:"enabled"` // always true; kept on the wire for /v1/stats readers
	FlushRows       int64  `json:"flush_rows"`
	Compactions     uint64 `json:"compactions"`
	SegmentsWritten uint64 `json:"segments_written"`
	// Log bytes ever appended (perftrack.wal and tail logs alike) and ever
	// deleted or truncated away; wal_bytes is what is live.
	LogBytesAppended uint64               `json:"log_bytes_appended"`
	LogBytesTrimmed  uint64               `json:"log_bytes_trimmed"`
	Tables           []SegmentTableStatus `json:"tables,omitempty"`
}

// SegmentStats reports compaction status, of each table that holds rows
// or logs.
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
		status := SegmentTableStatus{Table: t.schema.Name, LowWater: t.lowWaterLocked(),
			Segments: len(t.segs), Rows: t.segRows, Bytes: t.segBytes, PendingRows: t.lenLocked() - t.segRows}
		for _, l := range t.logsLocked() {
			status.LogBytes, status.LogFiles = status.LogBytes+l.size, status.LogFiles+1
		}
		if len(t.segs) > 0 {
			status.Watermark = t.segs[len(t.segs)-1].maxRowID
		}
		if status.Rows+status.PendingRows > 0 || status.LogFiles > 0 {
			out.Tables = append(out.Tables, status)
		}
	}
	return out
}
