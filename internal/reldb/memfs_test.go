package reldb

import (
	"errors"
	"fmt"
	"path/filepath"
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

// tailLogsOnDisk returns the sequence numbers of a store's tail logs, by
// table.
func tailLogsOnDisk(t *testing.T, fsys FS, dir string) map[string][]int64 {
	t.Helper()
	seqs := make(map[string][]int64)
	for rel := range listing(t, fsys, dir) {
		base := filepath.Base(rel)
		if !strings.HasPrefix(base, "tail-") {
			continue
		}
		table, seq, ok := parseTailLogName(base)
		if !ok {
			t.Fatalf("tail log %s: unparseable name", rel)
		}
		seqs[table] = append(seqs[table], seq)
	}
	return seqs
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
// write that fails gets half its bytes into the file first.
type faultFS struct {
	*memFS
	mu         sync.Mutex
	ops        int // counted since armed
	failAt     int // 0: disarmed
	tripped    bool
	syncFailed bool // the fault was a file or directory sync's
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

func (f *faultFS) wrap(file File, err error) (File, error) {
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
	if f.fs.trip(false) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errFault
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.trip(true) {
		return errFault
	}
	return f.File.Sync()
}

// TestFaultFSFailedCommitLeavesNoRecord runs a document-shaped commit — a
// metric row in perftrack.wal; results, foci, their links and closure
// links in six tail logs — with its k-th write or sync failing, for
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
