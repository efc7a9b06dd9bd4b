package perftrack

// Pins of the PTdf write path: the bytes a sequence of loads leaves on
// disk, and a bound on the allocations one doc_full commit makes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// heldStoreDocs is how many doc_full a held store holds before the
// commit a benchmark or test times.
const heldStoreDocs = 16

// noCompaction is a flush threshold above the rows any table of these
// stores gets, so no commit seals a tail and nothing runs behind one.
const noCompaction = 1 << 30

// loadDocs loads each document into s, one commit each, in order.
func loadDocs(tb testing.TB, s *datastore.Store, docs ...[]byte) {
	tb.Helper()
	for _, doc := range docs {
		if _, err := s.LoadPTdfCtx(context.Background(), bytes.NewReader(doc)); err != nil {
			tb.Fatal(err)
		}
	}
}

// heldStore writes, under a fresh directory, a checkpointed store holding
// the shared doc and heldStoreDocs doc_full of c, and returns the
// directory.
func heldStore(tb testing.TB, c *corpus.Corpus) string {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "held")
	db, err := reldb.OpenFile(dir)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := datastore.Open(db)
	if err != nil {
		tb.Fatal(err)
	}
	loadDocs(tb, s, corpus.SharedDoc())
	for i := 0; i < heldStoreDocs; i++ {
		loadDocs(tb, s, c.ExecDoc(i))
	}
	if err := errors.Join(db.Checkpoint(), db.Close()); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// openCopy copies the store under dir to a fresh directory and opens it
// there with compaction held off.
func openCopy(tb testing.TB, dir string) (*datastore.Store, *reldb.DB) {
	tb.Helper()
	to := filepath.Join(tb.TempDir(), "copy")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := reldb.OpenFile(to)
	if err != nil {
		tb.Fatal(err)
	}
	db.SetSegmentFlushRows(noCompaction)
	s, err := datastore.Open(db)
	if err != nil {
		tb.Fatal(err)
	}
	return s, db
}

// stagedDoc decodes doc into a batch of s, ready to commit.
func stagedDoc(tb testing.TB, s *datastore.Store, doc []byte) *datastore.Batch {
	tb.Helper()
	b := s.NewBatch()
	if err := b.Decode(context.Background(), bytes.NewReader(doc)); err != nil {
		tb.Fatal(err)
	}
	return b
}

// dirDigest is a SHA-256 over the name and bytes of every file under
// dir, in name order.
func dirDigest(tb testing.TB, dir string) string {
	tb.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			names = append(names, path)
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, path := range names {
		rel, _ := filepath.Rel(dir, path)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreBytesPinned loads the shared doc and six doc_full one after
// another with compaction held off, then checkpoints, and compares a
// digest of the store's files at both points with the ones recorded
// before the write path was last reworked: the log's groups, record by
// record, are in the first, row IDs and the segments' bytes in the
// second, so a faster write path must leave every byte as it was.
func TestStoreBytesPinned(t *testing.T) {
	const (
		wantLog  = "f3ce45f689e8f84689a490ca1509517be0194f6f4248d53d8da4336914393727"
		wantSegs = "ae857f50a6e513e9a9c03c2996c5b58e661ba0a623932bc5b125fbe796ce7f46"
	)
	dir := t.TempDir()
	db, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetSegmentFlushRows(noCompaction)
	s, err := datastore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Generate(1, 6)
	loadDocs(t, s, corpus.SharedDoc())
	for i := range c.Execs {
		loadDocs(t, s, c.ExecDoc(i))
	}
	if got := dirDigest(t, dir); got != wantLog {
		t.Errorf("store digest before the checkpoint %s, want %s", got, wantLog)
	}
	if err := errors.Join(db.Checkpoint(), db.Close()); err != nil {
		t.Fatal(err)
	}
	if got := dirDigest(t, dir); got != wantSegs {
		t.Errorf("store digest after the checkpoint %s, want %s", got, wantSegs)
	}
}

// maxCommitAllocsPerResult bounds the allocations a doc_full commit into
// a held store makes per result it stages: 0.32 measured when the bound
// was set, plus a quarter.
const maxCommitAllocsPerResult = 0.40

// TestCommitDocAllocsBounded commits a staged doc_full into each of three
// copies of a store that holds heldStoreDocs of them and bounds the
// allocations one commit makes per result. The commit's work — staging
// into the transaction, admission, the log record, the tail append — is
// per row and per distinct name or set; an allocation per row or per
// foreign-key probe shows here as a count, whatever the clock says.
func TestCommitDocAllocsBounded(t *testing.T) {
	c := corpus.Generate(1, heldStoreDocs+1)
	held := heldStore(t, c)
	doc := c.ExecDoc(heldStoreDocs)
	const runs = 2
	batches := make([]*datastore.Batch, runs+1) // AllocsPerRun runs once more, to warm up
	for i := range batches {
		s, db := openCopy(t, held)
		t.Cleanup(func() { db.Close() })
		batches[i] = stagedDoc(t, s, doc)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := batches[next].CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perResult := allocs / float64(corpus.Full.Results()); perResult > maxCommitAllocsPerResult {
		t.Errorf("a doc_full commit allocates %.0f objects, %.3f per result, want at most %.2f",
			allocs, perResult, maxCommitAllocsPerResult)
	}
}
