package datastore

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
)

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

// BulkLoadStreamCtx is the streaming bulk-ingest pipeline: next yields
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
//
// When a trace rides ctx, each document's commit records its own
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
				b, err := s.decode(j.rc)
				j.rc.Close()
				decoded <- bulkDoc{index: j.index, name: j.name, batch: b, err: err}
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
