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
// not touched — then Commit applies them all in one critical section.
// Staging is therefore free to run concurrently with readers, other
// stagers, and even other commits; only Commit serializes on the writer
// mutex.
//
// Commit is transactional per batch: every record applies inside one
// engine transaction, a bad record rolls the whole batch back (durably —
// the WAL carries the compensation records; the rows of the hot tables —
// results, foci, closure links and the links between them — were private
// to the transaction and never logged), the store generation bumps exactly
// once, and on a durable engine the WAL is flushed exactly once. On a
// durable engine the batch's results, its foci and their links become
// visible in one step, at the commit: a reader sees none or all of a
// document's results, and no focus of a batch that rolls back.
// This is the write API every multi-record path sits on: LoadPTdf stages
// one document per batch, and BulkLoad pipelines many batches from
// parallel decoders into a single committer.
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

// Stage buffers one record for the next Commit, updating the staged
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

// Stats reports the statistics of the records staged so far.
func (b *Batch) Stats() LoadStats { return b.stats }

// walBatcher is implemented by engines (reldb.FileEngine) that can defer
// per-mutation WAL flushing to a single end-of-batch flush.
type walBatcher interface {
	BeginWALBatch()
	EndWALBatch() error
}

// Commit applies every staged record in order inside one writer critical
// section: one engine transaction, one generation bump, and — on a
// durable engine — one WAL flush. On error nothing of the batch remains
// (the engine transaction rolls back and the names directory is reloaded
// from the rows) and the error names the failing record.
func (b *Batch) Commit() (LoadStats, error) {
	return b.CommitCtx(context.Background())
}

// CommitCtx is Commit under a context: when a trace rides ctx, the
// commit records a datastore.batch.commit span (annotated with the
// record count) and the WAL group flush its own datastore.wal.flush
// child. The context carries telemetry only — commit is not cancelable
// midway, by design: a batch either fully applies or fully rolls back.
func (b *Batch) CommitCtx(ctx context.Context) (LoadStats, error) {
	if b.done {
		return LoadStats{}, ErrBatchDone
	}
	b.done = true
	if len(b.recs) == 0 {
		return LoadStats{}, nil
	}
	s := b.s
	ctx, span := obs.StartSpan(ctx, "datastore.batch.commit")
	span.Annotate("records", strconv.Itoa(len(b.recs)))
	defer span.End()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()

	wb, _ := s.eng.(walBatcher)
	if wb != nil {
		wb.BeginWALBatch()
	}
	flush := func(err error) error {
		if wb == nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "datastore.wal.flush")
		ferr := wb.EndWALBatch()
		fspan.End()
		s.tel.walFlushes.Add(1)
		if ferr != nil {
			return errors.Join(err, fmt.Errorf("datastore: WAL flush: %w", ferr))
		}
		return err
	}

	tx := s.eng.Begin()
	s.ins = tx
	var applyErr error
	for i, rec := range b.recs {
		if err := s.loadRecordLocked(rec); err != nil {
			if len(b.recs) > 1 {
				err = fmt.Errorf("datastore: record %d: %w", i+1, err)
			}
			applyErr = err
			break
		}
	}
	s.ins = nil

	if applyErr != nil {
		// rollbackLoad logs compensation records; the deferred flush below
		// makes the rollback durable.
		s.tel.batchRollbacks.Add(1)
		span.Annotate("outcome", "rollback")
		return LoadStats{}, flush(s.rollbackLoad(tx, applyErr))
	}
	if err := tx.Commit(); err != nil {
		// The engine refused the batch's hot-table rows — nothing of them is
		// installed — and the transaction is still open: the rest goes too.
		s.tel.batchRollbacks.Add(1)
		span.Annotate("outcome", "rollback")
		return LoadStats{}, flush(s.rollbackLoad(tx, err))
	}
	if err := flush(nil); err != nil {
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
