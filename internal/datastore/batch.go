package datastore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/ptdf"
)

// ErrBatchDone is returned by operations on a committed or rolled-back
// batch.
var ErrBatchDone = errors.New("datastore: batch already finished")

// Batch is the store's one write door: begin with NewBatch,
// stage any number of PTdf records — no lock is taken and the store is
// not touched — then CommitCtx applies them all in one critical section.
// Staging is therefore free to run concurrently with readers, other
// stagers, and even other commits; only CommitCtx serializes on the
// writer mutex.
//
// A staged result is one fixed-size row (a ptdf.Result) in fixed chunks
// of resultChunk rows: its resource set and its four names are indices
// into the batch's dict of each distinct set and name. Every other record
// is kept as it is, with the count of rows staged before it: the few a
// document holds apply in document order with the rows.
//
// CommitCtx is transactional per batch: every record applies inside one
// engine transaction, whose rows — of every table — are private to it
// until the engine commits them all at once. A reader sees none or all
// of a document's rows; a bad record rolls the whole batch back, and the
// engine never saw a row of it, so nothing is undone or logged. The store
// generation bumps exactly once, and the commit is one group of the
// engine's log, written once. Every row enters the store this way (only
// DeleteExecution runs a transaction of its own): LoadPTdfCtx stages one
// document per batch, BulkLoadStreamCtx feeds parallel decoders' batches
// to one committer, and Open stages the base types.
type Batch struct {
	s      *Store
	rows   [][]ptdf.Result
	nrows  int
	others []other

	// The names and resource sets rows refer to. Decode's reader numbers
	// them as it parses; Stage enters a staged record's, a set by its
	// slice (a Reader's records share their Sets), so each has one index.
	dict ptdf.Dict
	done bool
}

// resultChunk is the rows of a full chunk of Batch.rows. The first chunk
// starts at firstChunk rows and doubles up to it, so a small batch stays
// small; every later chunk is allocated once, at full size.
const (
	resultChunk = 1024
	firstChunk  = 64
)

// other is a staged record that is not a result row, and how many rows
// were staged before it.
type other struct {
	rec ptdf.Record
	at  int
}

// NewBatch begins an empty batch against the store.
func (s *Store) NewBatch() *Batch {
	return &Batch{s: s}
}

// Stage buffers one record for the next CommitCtx. It takes no locks and
// cannot fail: validation happens at commit time, inside the transaction.
// A histogram is kept as it is, its names and set entered in the batch's
// tables now: at commit it applies as a row of them (loadHistogramLocked).
func (b *Batch) Stage(rec ptdf.Record) {
	switch r := rec.(type) {
	case ptdf.PerfResultRec:
		row := b.rowOf(r.Sets, r.Exec, r.Tool, r.Metric, r.Units, r.Value)
		b.stageResult(&row)
		return
	case ptdf.PerfHistogramRec:
		b.rowOf(r.Sets, r.Exec, r.Tool, r.Metric, r.Units, 0)
	}
	b.others = append(b.others, other{rec: rec, at: b.nrows})
}

// rowOf returns the row of a result with the given resource sets, names
// and value, entering each in the batch's dict.
func (b *Batch) rowOf(sets []ptdf.ResourceSet, exec, tool, metric, units string, value float64) ptdf.Result {
	d := &b.dict
	return ptdf.Result{Exec: d.Name(exec), Set: d.AddSets(sets), Tool: d.Name(tool), Metric: d.Name(metric), Units: d.Name(units), Value: value}
}

// stageResult appends a row.
func (b *Batch) stageResult(row *ptdf.Result) {
	k := len(b.rows) - 1
	switch {
	case k < 0:
		b.rows = append(b.rows, make([]ptdf.Result, 0, firstChunk))
		k = 0
	case len(b.rows[k]) == resultChunk:
		b.rows = append(b.rows, make([]ptdf.Result, 0, resultChunk))
		k++
	case len(b.rows[k]) == cap(b.rows[k]): // the first chunk, short of resultChunk
		b.rows[k] = append(make([]ptdf.Result, 0, 2*cap(b.rows[k])), b.rows[k]...)
	}
	b.rows[k] = append(b.rows[k], *row)
	b.nrows++
}

// Decode stages every record of a PTdf document, result lines straight
// from the reader's buffer into rows: the reader numbers their names and
// sets in the batch's dict as it parses them. It stops at the first bad
// line, with an error naming it, and before any line once ctx is done;
// either way it rolls the batch back.
func (b *Batch) Decode(ctx context.Context, r io.Reader) error {
	if b.done {
		return ErrBatchDone
	}
	pr := ptdf.NewDictReader(r, &b.dict)
	for {
		if err := ctx.Err(); err != nil {
			b.Rollback()
			return fmt.Errorf("datastore: decode: %w", err)
		}
		rec, res, err := pr.Scan()
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			b.Rollback()
			return fmt.Errorf("%w: %w", err, ErrBadSpec)
		case res != nil:
			b.stageResult(res)
		default:
			b.Stage(rec)
		}
	}
}

// Len reports the number of staged records.
func (b *Batch) Len() int { return b.nrows + len(b.others) }

// CommitCtx applies every staged record in order inside one writer
// critical section: one engine transaction, one generation bump, and one
// write of the engine's log. Each distinct name and
// resource set resolves once per commit. On error nothing of the batch
// remains (the transaction rolls back and the names directory is
// reloaded from the rows) and the error names the failing record. A
// trace riding ctx gets a datastore.batch.commit span with the record
// count and two children: datastore.batch.apply, staging the records
// into the transaction (annotated with the rows it inserted), and
// reldb.commit, the engine's admission, log write, tail append and seal.
// ctx carries telemetry only: by design a commit is not cancelable
// midway, so a batch either fully applies or fully rolls back.
func (b *Batch) CommitCtx(ctx context.Context) (LoadStats, error) {
	if b.done {
		return LoadStats{}, ErrBatchDone
	}
	b.done = true
	if b.Len() == 0 {
		return LoadStats{}, nil
	}
	s := b.s
	ctx, span := obs.StartSpan(ctx, "datastore.batch.commit")
	span.Annotate("records", strconv.Itoa(b.Len()))
	defer span.End()
	names := len(b.dict.Names)
	c := commitState{
		execs:    make([]int64, names),
		tools:    make([]int64, names),
		metrics:  make([]int64, names),
		units:    make([]int64, names),
		sets:     make([]resolvedSet, len(b.dict.Sets)),
		contexts: make([]core.Context, 0, len(b.dict.Sets)),
		foci:     make([]int64, 0, len(b.dict.Sets)),
	}
	// One engine transaction in one writer critical section: begin, apply,
	// then commit, or on failure roll back and reload the names directory,
	// which the records updated in place. The generation bumps after the
	// outcome, whatever it is.
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.bumpGen()
	s.tx = s.eng.Begin()
	defer func() { s.tx = nil }()
	_, apply := obs.StartSpan(ctx, "datastore.batch.apply")
	var err error
	pos, o := 0, 0 // the record applying, in staging order; the next of b.others
	for k := 0; err == nil && k <= b.nrows; k++ {
		for ; err == nil && o < len(b.others) && b.others[o].at == k; o++ {
			pos = k + o
			err = s.loadRecordLocked(b, b.others[o].rec, &c)
		}
		if err == nil && k < b.nrows {
			pos = k + o
			_, err = s.loadResultLocked(b, &b.rows[k/resultChunk][k%resultChunk], &c)
			if err == nil && k == 0 {
				// Nearly every row left is a result or one of its focus
				// links, at least one each: room made for them now spares
				// their columns' regrowth. The first result has made both
				// blocks, so the log keeps the order of their first rows.
				err = errors.Join(s.tx.Grow("performance_result", b.nrows), s.tx.Grow("result_has_focus", b.nrows))
			}
		}
	}
	if err != nil && b.Len() > 1 {
		err = fmt.Errorf("datastore: record %d: %w", pos+1, err)
	}
	apply.Annotate("rows", strconv.Itoa(s.tx.Rows()))
	apply.End()
	if err == nil {
		if beforeCommit != nil {
			beforeCommit(s)
		}
		_, commit := obs.StartSpan(ctx, "reldb.commit")
		err = s.tx.Commit()
		commit.End()
	}
	if err != nil {
		s.tel.batchRollbacks.Add(1)
		span.Annotate("outcome", "rollback")
		return LoadStats{}, s.rollbackLoad(s.tx, err)
	}
	s.tel.batchCommits.Add(1)
	s.tel.recordsLoaded.Add(uint64(b.Len()))
	c.stats.Records = b.Len()
	return c.stats, nil
}

// Rollback discards the staged records. The store is untouched — staging
// never reaches it — so rollback of an uncommitted batch is free.
func (b *Batch) Rollback() {
	*b = Batch{s: b.s, done: true}
}
