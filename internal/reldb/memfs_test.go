package reldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Crash returns the filesystem a power loss would leave: each file as its
// last Sync left it — unsynced tails dropped, an unsynced truncation
// undone — under the directory entries each directory's last SyncDir made
// durable, so a file created, renamed or removed since is back where it
// was.
func (m *memFS) Crash() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := newMemFS()
	for dir, entries := range m.dirs {
		kept := make(map[string]*memFile, len(entries))
		for base, f := range entries {
			cf := &memFile{data: f.durable, durable: f.durable}
			kept[base] = cf
			c.files[filepath.Join(dir, base)] = cf
		}
		c.dirs[dir] = kept
	}
	return c
}

// openTestEngineOn opens the store at dir of fsys.
func openTestEngineOn(t *testing.T, fsys FS, dir string) *DB {
	t.Helper()
	kind := KindMem
	if _, ok := fsys.(osFS); ok {
		kind = KindSegment
	}
	db, err := open(fsys, kind, dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return db
}

// newTestMem returns an empty in-memory engine that the test closes.
func newTestMem(t testing.TB) *DB {
	db := NewMem()
	t.Cleanup(func() { db.Close() })
	return db
}

// listing is every file of a store with its size.
func listing(t *testing.T, fsys FS, dir string) map[string]int64 {
	t.Helper()
	files := make(map[string]int64)
	for _, d := range []string{dir, filepath.Join(dir, segmentSubdir)} {
		names, err := fsys.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			size, err := fsys.Size(filepath.Join(d, name))
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(dir, filepath.Join(d, name))
			files[rel] = size
		}
	}
	return files
}

// logRecords decodes every record of a log file.
func logRecords(t *testing.T, fsys FS, path string) []*mutation {
	t.Helper()
	f, err := fsys.Open(path)
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

// TestMemFSCrashKeepsWhatWasSynced pins what Crash keeps: a file's
// synced bytes and a directory's synced entries, and nothing since.
func TestMemFSCrashKeepsWhatWasSynced(t *testing.T) {
	m := newMemFS()
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	write := func(name string, sync bool, parts ...string) File {
		t.Helper()
		f, err := m.Append(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if _, err := f.Write([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	a := write("d/a", true, "synced")
	write("d/b", true, "ok")
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	a.Write([]byte(" tail"))                        // never synced
	write("d/c", true, "synced, unnamed")           // its entry never synced
	if err := m.Rename("d/b", "d/b2"); err != nil { // nor this rename
		t.Fatal(err)
	}
	c := m.Crash()
	got := map[string]string{}
	for _, name := range []string{"d/a", "d/b", "d/b2", "d/c"} {
		if data, err := c.ReadFile(name); err == nil {
			got[name] = string(data)
		}
	}
	if want := map[string]string{"d/a": "synced", "d/b": "ok"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after a crash: %v, want %v", got, want)
	}
	// A truncation is durable only once synced.
	if err := a.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if data, _ := m.Crash().ReadFile("d/a"); string(data) != "synced" {
		t.Fatalf("an unsynced truncation survived a crash: %q", data)
	}
	a.Sync()
	if data, _ := m.Crash().ReadFile("d/a"); string(data) != "sy" {
		t.Fatalf("a synced truncation did not survive a crash: %q", data)
	}
}

var errFault = errors.New("injected fault")

// faultFS is a memFS whose k-th write or sync fails — counting file
// writes, file syncs and directory syncs from the moment it is armed. A
// write that fails gets half its bytes into the file first. Armed or not,
// it counts every call that changes a file or a directory, and the file
// writes and file syncs among them.
type faultFS struct {
	*memFS
	mu            sync.Mutex
	ops           int // counted since armed
	failAt        int // 0: disarmed
	tripped       bool
	syncFailed    bool // the fault was a file or directory sync's
	mutations     int
	writes, syncs int
}

func (f *faultFS) arm(k int) {
	f.mu.Lock()
	f.ops, f.failAt, f.tripped, f.syncFailed = 0, k, false, false
	f.mu.Unlock()
}

// disarm stops the counting and reports whether the fault fired.
func (f *faultFS) disarm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = 0
	return f.tripped
}

func (f *faultFS) trip(sync bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mutations++
	if f.failAt == 0 {
		return false
	}
	f.ops++
	if f.ops == f.failAt {
		f.tripped, f.syncFailed = true, sync
		return true
	}
	return false
}

func (f *faultFS) Create(name string) (File, error) { return f.wrap(f.memFS.Create(name)) }
func (f *faultFS) Append(name string) (File, error) { return f.wrap(f.memFS.Append(name)) }

func (f *faultFS) Rename(oldname, newname string) error {
	f.mutated()
	return f.memFS.Rename(oldname, newname)
}

func (f *faultFS) Remove(name string) error {
	f.mutated()
	return f.memFS.Remove(name)
}

func (f *faultFS) Truncate(name string, size int64) error {
	f.mutated()
	return f.memFS.Truncate(name, size)
}

func (f *faultFS) MkdirAll(dir string) error {
	f.mutated()
	return f.memFS.MkdirAll(dir)
}

// mutated counts a call that changes the filesystem but cannot fail.
func (f *faultFS) mutated() {
	f.mu.Lock()
	f.mutations++
	f.mu.Unlock()
}

func (f *faultFS) wrap(file File, err error) (File, error) {
	f.mutated()
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) SyncDir(dir string) error {
	if f.trip(true) {
		return errFault
	}
	return f.memFS.SyncDir(dir)
}

type faultFile struct {
	File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.mu.Unlock()
	if f.fs.trip(false) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errFault
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	if f.fs.trip(true) {
		return errFault
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	f.fs.mutated()
	return f.File.Truncate(size)
}

// TestFaultFSFailedCommitLeavesNoRecord runs a document-shaped commit — a
// metric row; results, foci, their links and closure links: one group of
// seven tables — with its k-th write or sync failing, for
// every k up to the first the commit gets through. A failed commit
// installs nothing and must leave no record in any log. After a failed
// write the next commit, on every table, goes through; after a failed
// fsync the engine refuses it, and every write, with ErrRefused. Both the
// live engine and a reopen of what a power loss then leaves hold exactly
// the committed transactions. Synchronous mode: every acknowledged commit
// is durable.
func TestFaultFSFailedCommitLeavesNoRecord(t *testing.T) {
	metric := &Schema{
		Name:       "metric",
		Columns:    []Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}},
		PrimaryKey: []string{"id"},
	}
	tables := append([]string{"metric"}, HotTables...)
	for k := 1; ; k++ {
		fsys := &faultFS{memFS: newMemFS()}
		db := openTestEngineOn(t, fsys, "db")
		db.SetSync(true)
		db.SetSegmentFlushRows(1 << 40) // the compactor stays idle: every write counted is the commit's
		ref := newRefModel()
		for _, w := range []writer{db, ref} {
			for _, schema := range append([]*Schema{metric}, hotSchemas()...) {
				if err := w.CreateTable(schema); err != nil {
					t.Fatal(err)
				}
			}
		}
		// doc stages a document on both and returns the two transactions.
		doc := func(first int) [2]txWriter {
			var txs [2]txWriter
			for i, w := range []writer{db, ref} {
				txs[i] = w.begin()
				if _, err := txs[i].Insert("metric", Row{Int(int64(first)), Str("m")}); err != nil {
					t.Fatal(err)
				}
				if err := loadResults(txs[i], first, 30); err != nil {
					t.Fatal(err)
				}
			}
			return txs
		}
		commit := func(what string, txs [2]txWriter) {
			t.Helper()
			for _, tx := range txs {
				if err := tx.Commit(); err != nil {
					t.Fatalf("k=%d: %s: %v", k, what, err)
				}
			}
		}
		commit("the first document", doc(0))
		txs := doc(100)
		fsys.arm(k)
		err := txs[0].Commit()
		tripped := fsys.disarm()
		switch {
		case (err == nil) == tripped:
			t.Fatalf("k=%d: the fault fired = %v, the commit returned %v", k, tripped, err)
		case err == nil:
			if err := txs[1].Commit(); err != nil {
				t.Fatal(err)
			}
		default:
			txs[0].Rollback()
			txs[1].Rollback()
		}
		if fsys.syncFailed {
			after := doc(200)
			if !errors.Is(err, ErrRefused) {
				t.Fatalf("k=%d: the commit whose fsync failed returned %v, want ErrRefused", k, err)
			}
			if err := after[0].Commit(); !errors.Is(err, ErrRefused) {
				t.Fatalf("k=%d: the commit after a failed fsync returned %v, want ErrRefused", k, err)
			}
			after[0].Rollback()
			after[1].Rollback()
		} else {
			commit("the document after", doc(200))
		}
		want := ref.dump(tables)
		if got := dumpDB(db, tables); got != want {
			t.Fatalf("k=%d (commit error %v): the engine holds\n%s\nwant\n%s", k, err, got, want)
		}
		crashed := openTestEngineOn(t, fsys.memFS.Crash(), "db")
		if got := dumpDB(crashed, tables); got != want {
			t.Fatalf("k=%d (commit error %v): after a crash the store holds\n%s\nwant\n%s", k, err, got, want)
		}
		crashed.Close()
		db.Close()
		if !tripped {
			t.Logf("the commit took %d writes and syncs; each failed once", k-1)
			return
		}
	}
}

// TestFaultFSSyncCommitFsyncsOnce: in synchronous mode a document's
// commit — a metric row, results, foci, their links and closure links,
// seven tables — is one write and one fsync of the log, and no directory
// sync.
func TestFaultFSSyncCommitFsyncsOnce(t *testing.T) {
	metric := &Schema{
		Name:       "metric",
		Columns:    []Column{{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}},
		PrimaryKey: []string{"id"},
	}
	fsys := &faultFS{memFS: newMemFS()}
	db := openTestEngineOn(t, fsys, "db")
	defer db.Close()
	db.SetSync(true)
	db.SetSegmentFlushRows(1 << 40) // no pass
	for _, schema := range append([]*Schema{metric}, hotSchemas()...) {
		mustCreate(t, db, schema)
	}
	for first := 0; first <= 100; first += 100 {
		fsys.mu.Lock()
		writes, syncs, mutations := fsys.writes, fsys.syncs, fsys.mutations
		fsys.mu.Unlock()
		tx := db.Begin()
		if _, err := tx.Insert("metric", Row{Int(int64(first)), Str("m")}); err != nil {
			t.Fatal(err)
		}
		if err := loadResults(tx, first, 30); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		fsys.mu.Lock()
		writes, syncs, mutations = fsys.writes-writes, fsys.syncs-syncs, fsys.mutations-mutations
		fsys.mu.Unlock()
		if writes != 1 || syncs != 1 || mutations != 2 {
			t.Fatalf("document %d: the commit made %d writes, %d fsyncs and %d calls that change the filesystem, want one write and one fsync alone", first, writes, syncs, mutations)
		}
	}
}

// setManifestVersion rewrites the version in the header record of the
// manifest of the store at dir of fsys.
func setManifestVersion(t *testing.T, fsys *memFS, dir string, version uint64) {
	t.Helper()
	path := filepath.Join(dir, segmentSubdir, manifestFile)
	buf := mustRead(t, fsys, path)
	n := binary.LittleEndian.Uint32(buf)
	p := &payloadReader{buf: buf[8 : 8+n]}
	p.uvarint()
	hdr := appendRecord(nil, putVarint(putUvarint(nil, version), p.varint()))
	if err := replaceFile(fsys, path, append(hdr, buf[8+n:]...)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesOtherFormats: a directory opens at the current manifest
// version or not at all. Over the fault FS, a store whose manifest says
// any of versions 1–7 or 9, and a manifest-less directory holding what an
// older program wrote — perftrack.snap, perftrack.wal, a tail log — a
// segment file or a log file with records, is refused with ErrFormat naming the version it holds (0 without a
// manifest), and the open makes no call that changes a file or a
// directory. A fresh directory opens, and so does what an open that
// failed before its first manifest leaves, as left and after a power
// loss.
func TestOpenRefusesOtherFormats(t *testing.T) {
	src := newMemFS()
	db := openTestEngineOn(t, src, "db")
	mustCreate(t, db, personSchema())
	commitRows(t, db, "person", personRows(0, 5))
	if err := db.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	commitRows(t, db, "person", personRows(5, 3)) // left in the log
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := src.ReadDir(filepath.Join("db", segmentSubdir))
	if err != nil {
		t.Fatal(err)
	}
	pick := func(suffix string) string {
		t.Helper()
		for _, name := range files {
			if strings.HasSuffix(name, suffix) {
				return filepath.Join("db", segmentSubdir, name)
			}
		}
		t.Fatalf("no %s file in %v", suffix, files)
		return ""
	}
	b := &ColumnBlock{}
	b.reset(personSchema(), 1)
	b.appendRow(1, Row{Int(1), Str("a"), Null(), Null()})
	schema := appendRecord(nil, encodeMutationPayload(&mutation{op: opCreateTable, schema: personSchema()}))
	walRows := appendBlockRecords(slices.Clone(schema), "person", b)

	refused := func(name string, fsys *memFS, version uint64) {
		t.Helper()
		f := &faultFS{memFS: fsys}
		_, err := open(f, KindMem, "db")
		want := fmt.Sprintf("re-load it from PTdf (db holds version %d; this program reads version %d only)", version, manifestVersion)
		if !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorruptLog) || !strings.HasSuffix(fmt.Sprint(err), want) {
			t.Errorf("%s: the open returned %v, want ErrFormat ending %q", name, err, want)
		}
		if f.mutations != 0 {
			t.Errorf("%s: the refused open made %d calls that change the filesystem", name, f.mutations)
		}
	}
	for _, v := range []uint64{1, 2, 3, 4, 5, 6, 7, manifestVersion + 1} {
		fsys := src.Crash()
		setManifestVersion(t, fsys, "db", v)
		refused(fmt.Sprintf("manifest version %d", v), fsys, v)
	}
	for name, file := range map[string]struct {
		path string
		data []byte
	}{
		"perftrack.snap":           {filepath.Join("db", "perftrack.snap"), schema},
		"rows in perftrack.wal":    {filepath.Join("db", "perftrack.wal"), walRows},
		"a tail log":               {filepath.Join("db", segmentSubdir, "tail-person-00000001.log"), walRows[len(schema):]},
		"a segment file":           {pick(".seg"), mustRead(t, src, pick(".seg"))},
		"a DDL-only perftrack.wal": {filepath.Join("db", "perftrack.wal"), schema},
		"a log with records":       {pick(".log"), mustRead(t, src, pick(".log"))},
	} {
		fsys := newMemFS()
		if err := fsys.MkdirAll(filepath.Dir(file.path)); err != nil {
			t.Fatal(err)
		}
		if err := replaceFile(fsys, file.path, file.data); err != nil {
			t.Fatal(err)
		}
		refused(name+" and no manifest", fsys, 0)
	}

	// A fresh open with its k-th write or sync failing, for every k up to
	// the first it gets through: what each failure leaves reopens.
	for k := 1; ; k++ {
		f := &faultFS{memFS: newMemFS()}
		f.arm(k)
		db, err := open(f, KindMem, "db")
		if tripped := f.disarm(); tripped == (err == nil) {
			t.Fatalf("k=%d: the fault fired = %v, the open returned %v", k, tripped, err)
		}
		if err == nil {
			db.Close()
			if k == 1 {
				t.Fatal("a fresh open wrote nothing")
			}
			return
		}
		for label, m := range map[string]*memFS{"as left": f.memFS, "after a power loss": f.memFS.Crash()} {
			re, err := open(m, KindMem, "db")
			if err != nil {
				t.Fatalf("k=%d, %s: %v", k, label, err)
			}
			re.Close()
		}
	}
}
