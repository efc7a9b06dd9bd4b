package datastore

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"perftrack/internal/obs"
	"perftrack/internal/ptdf"
)

// ErrBatchDone is returned by operations on a committed or rolled-back
// batch.
var ErrBatchDone = errors.New("datastore: batch already finished")

// Batch is the store's multi-record write unit: begin with NewBatch,
// stage any number of PTdf records — no lock is taken and the store is
// not touched — then CommitCtx applies them all in one critical section.
// Staging is therefore free to run concurrently with readers, other
// stagers, and even other commits; only CommitCtx serializes on the
// writer mutex.
//
// CommitCtx is transactional per batch: every record applies inside one
// engine transaction, whose rows — of every table — are private to it
// until the engine commits them all at once. A reader sees none or all
// of a document's rows; a bad record rolls the whole batch back, and the
// engine never saw a row of it, so nothing is undone or logged. The store
// generation bumps exactly once, and the commit flushes each log it
// touched exactly once. This is the write API every multi-record path
// sits on: LoadPTdfCtx stages one document per batch, and
// BulkLoadStreamCtx feeds parallel decoders' batches to one committer.
type Batch struct {
	s     *Store
	recs  []ptdf.Record
	stats LoadStats
	done  bool
}

// NewBatch begins an empty batch against the store.
func (s *Store) NewBatch() *Batch {
	return &Batch{s: s}
}

// Stage buffers one record for the next CommitCtx, updating the staged
// statistics. It takes no locks and cannot fail: validation happens at
// commit time, inside the transaction.
func (b *Batch) Stage(rec ptdf.Record) {
	b.recs = append(b.recs, rec)
	b.stats.Records++
	switch rec.(type) {
	case ptdf.ResourceTypeRec:
		b.stats.Types++
	case ptdf.ApplicationRec:
		b.stats.Apps++
	case ptdf.ExecutionRec:
		b.stats.Executions++
	case ptdf.ResourceRec:
		b.stats.Resources++
	case ptdf.ResourceAttributeRec:
		b.stats.Attributes++
	case ptdf.ResourceConstraintRec:
		b.stats.Constraints++
	case ptdf.PerfResultRec, ptdf.PerfHistogramRec:
		b.stats.Results++
	}
}

// Len reports the number of staged records.
func (b *Batch) Len() int { return len(b.recs) }

// CommitCtx applies every staged record in order inside one writer
// critical section: one engine transaction, one generation bump, and one
// flush of each log the transaction touched. Results that share their
// resource sets (a ptdf.Reader's do) resolve them to foci once. On error nothing of the
// batch remains (the transaction rolls back and the names directory is
// reloaded from the rows) and the error names the failing record. A
// trace riding ctx gets a datastore.batch.commit span with the record
// count, covering the engine commit and its log flush. ctx carries
// telemetry only: by design a commit is not cancelable midway, so a
// batch either fully applies or fully rolls back.
func (b *Batch) CommitCtx(ctx context.Context) (LoadStats, error) {
	if b.done {
		return LoadStats{}, ErrBatchDone
	}
	b.done = true
	if len(b.recs) == 0 {
		return LoadStats{}, nil
	}
	s := b.s
	_, span := obs.StartSpan(ctx, "datastore.batch.commit")
	span.Annotate("records", strconv.Itoa(len(b.recs)))
	defer span.End()
	err := s.write(func() error {
		sets := make(resolvedSets)
		for i, rec := range b.recs {
			if err := s.loadRecordLocked(rec, sets); err != nil {
				if len(b.recs) > 1 {
					err = fmt.Errorf("datastore: record %d: %w", i+1, err)
				}
				return err
			}
		}
		return nil
	})
	if err != nil {
		s.tel.batchRollbacks.Add(1)
		span.Annotate("outcome", "rollback")
		return LoadStats{}, err
	}
	s.tel.batchCommits.Add(1)
	s.tel.recordsLoaded.Add(uint64(len(b.recs)))
	return b.stats, nil
}

// Rollback discards the staged records. The store is untouched — staging
// never reaches it — so rollback of an uncommitted batch is free.
func (b *Batch) Rollback() {
	b.done = true
	b.recs = nil
	b.stats = LoadStats{}
}
