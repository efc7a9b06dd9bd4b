package datastore

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"perftrack/internal/ptdf"
)

// BulkSource names one PTdf document for a bulk load. Open is called at
// most once, from a decode worker goroutine; the returned reader must be
// independently readable (workers read several documents concurrently).
type BulkSource struct {
	Name string
	Open func() (io.ReadCloser, error)
}

// DocResult is the per-document outcome of a bulk load. Err is nil when
// the document committed; a failed document rolled back completely and
// did not affect any other document.
type DocResult struct {
	Name  string
	Stats LoadStats
	Err   error
}

// bulkDoc is one decoded (or failed) document in flight between the
// decode workers and the committer.
type bulkDoc struct {
	index int
	name  string
	batch *Batch
	err   error
}

// BulkLoadStream is the streaming bulk-ingest pipeline: next yields
// documents in order (io.EOF ends the stream), `workers` goroutines
// decode them in parallel into staged batches, and a single committer
// commits each batch transactionally in input order. Bounded channels
// give backpressure — at most ~2×workers documents are decoded but
// uncommitted — and failure is per document: a bad record fails (and
// fully rolls back) only its own document, every other document still
// commits. emit receives one DocResult per document, in input order,
// from the caller's goroutine.
//
// A non-EOF error from next stops dispatching and is returned after the
// already-dispatched documents finish.
func (s *Store) BulkLoadStream(next func() (string, io.ReadCloser, error), workers int, emit func(DocResult)) error {
	return s.BulkLoadStreamCtx(context.Background(), next, workers, emit)
}

// BulkLoadStreamCtx is BulkLoadStream under a context: when a trace
// rides ctx, each document's commit records its own
// datastore.batch.commit span (the decode fan-out is not traced — its
// cost shows up as the gap between commit spans).
func (s *Store) BulkLoadStreamCtx(ctx context.Context, next func() (string, io.ReadCloser, error), workers int, emit func(DocResult)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		index int
		name  string
		rc    io.ReadCloser
	}
	window := make(chan struct{}, 2*workers) // decoded-but-uncommitted bound
	jobs := make(chan job)
	decoded := make(chan bulkDoc, 2*workers)

	var srcErr error
	go func() {
		defer close(jobs)
		for i := 0; ; i++ {
			window <- struct{}{}
			name, rc, err := next()
			if err == io.EOF {
				<-window
				return
			}
			if err != nil {
				<-window
				srcErr = err
				return
			}
			jobs <- job{index: i, name: name, rc: rc}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				b := s.NewBatch()
				r := ptdf.NewReader(j.rc)
				var derr error
				for {
					rec, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						// Fail fast: stop decoding this document, move on.
						derr = fmt.Errorf("%w: %w", err, ErrBadSpec)
						break
					}
					b.Stage(rec)
				}
				j.rc.Close()
				decoded <- bulkDoc{index: j.index, name: j.name, batch: b, err: derr}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(decoded)
	}()

	// Single committer: reorder decoded documents back into input order
	// and commit each as one batch.
	pending := make(map[int]bulkDoc)
	nextIdx := 0
	for d := range decoded {
		pending[d.index] = d
		for {
			d, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			dr := DocResult{Name: d.name}
			if d.err != nil {
				dr.Err = fmt.Errorf("%s: %w", d.name, d.err)
			} else if stats, err := d.batch.CommitCtx(ctx); err != nil {
				dr.Err = fmt.Errorf("%s: %w", d.name, err)
			} else {
				dr.Stats = stats
			}
			emit(dr)
			<-window
		}
	}
	return srcErr
}

// BulkLoad loads many PTdf documents with parallel decoding and a single
// transactional committer, returning one result per document in input
// order. See BulkLoadStream for the pipeline semantics.
func (s *Store) BulkLoad(docs []BulkSource, workers int) []DocResult {
	out := make([]DocResult, 0, len(docs))
	i := 0
	next := func() (string, io.ReadCloser, error) {
		if i >= len(docs) {
			return "", nil, io.EOF
		}
		d := docs[i]
		i++
		rc, err := d.Open()
		if err != nil {
			// A document that cannot be opened fails alone, not the stream:
			// hand the workers a reader that reports the error.
			return d.Name, errReadCloser{err}, nil
		}
		return d.Name, rc, nil
	}
	s.BulkLoadStream(next, workers, func(dr DocResult) { out = append(out, dr) })
	return out
}

// BulkLoadFiles bulk-loads PTdf files from disk.
func (s *Store) BulkLoadFiles(paths []string, workers int) []DocResult {
	docs := make([]BulkSource, len(paths))
	for i, path := range paths {
		path := path
		docs[i] = BulkSource{Name: path, Open: func() (io.ReadCloser, error) { return os.Open(path) }}
	}
	return s.BulkLoad(docs, workers)
}

// errReadCloser surfaces a document-open failure through the decode path.
type errReadCloser struct{ err error }

func (e errReadCloser) Read([]byte) (int, error) { return 0, e.err }
func (e errReadCloser) Close() error             { return nil }
