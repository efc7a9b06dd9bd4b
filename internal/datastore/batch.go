package datastore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

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
// A staged result is one fixed-size row (resultRow) in fixed chunks of
// resultChunk rows: its resource set and its four names are indices into
// the batch's tables of each distinct set and name. Every other record is
// kept as it is; the few a document holds apply in document order with
// the rows, through order.
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
	s *Store
	// order holds one entry per staged record, in staging order: a row's
	// index in rows, or ^i for others[i].
	order  []int32
	rows   [][]resultRow
	others []ptdf.Record

	// The names and resource sets rows refer to. A Reader's records share
	// their Sets, so a set is keyed by its slice.
	execs, tools, metrics, units dict[string, string]
	sets                         dict[setKey, []ptdf.ResourceSet]
	done                         bool
}

// resultRow is one staged ptdf.PerfResultRec: the indices of its set and
// names in the batch's tables, and its value. 32 bytes.
type resultRow struct {
	set, exec, tool, metric, units int32
	value                          float64
}

// resultChunk is the rows of a full chunk of Batch.rows. The first chunk
// starts at firstChunk rows and doubles up to it, so a small batch stays
// small; every later chunk is allocated once, at full size.
const (
	resultChunk = 1024
	firstChunk  = 64
)

// setKey identifies a resource-set slice: a ptdf.Reader parses each
// distinct resource-set text of a document once and hands every record
// naming it the same slice.
type setKey struct {
	first *ptdf.ResourceSet
	n     int
}

func keyOf(sets []ptdf.ResourceSet) setKey {
	if len(sets) == 0 {
		return setKey{}
	}
	return setKey{&sets[0], len(sets)}
}

// dict is one of a batch's tables of what its rows refer to: each distinct
// key's value once, in first-staged order.
type dict[K comparable, V any] struct {
	vals    []V
	index   map[K]int32
	lastKey K
	last    int32 // lastKey's index: consecutive results mostly repeat it
}

// of returns k's index, adding v under it if k is new.
func (d *dict[K, V]) of(k K, v V) int32 {
	if len(d.vals) > 0 && k == d.lastKey {
		return d.last
	}
	i, ok := d.index[k]
	if !ok {
		if d.index == nil {
			d.index = make(map[K]int32)
		}
		i = int32(len(d.vals))
		d.vals = append(d.vals, v)
		d.index[k] = i
	}
	d.lastKey, d.last = k, i
	return i
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
		b.stageResult(&r)
		return
	case ptdf.PerfHistogramRec:
		b.rowOf(r.Sets, r.Exec, r.Tool, r.Metric, r.Units, 0)
	}
	b.order = append(b.order, ^int32(len(b.others)))
	b.others = append(b.others, rec)
}

// rowOf returns the row of a result with the given resource sets, names
// and value, entering each in the batch's tables.
func (b *Batch) rowOf(sets []ptdf.ResourceSet, exec, tool, metric, units string, value float64) resultRow {
	return resultRow{
		set:    b.sets.of(keyOf(sets), sets),
		exec:   b.execs.of(exec, exec),
		tool:   b.tools.of(tool, tool),
		metric: b.metrics.of(metric, metric),
		units:  b.units.of(units, units),
		value:  value,
	}
}

// stageResult appends r as a row; r itself is not kept.
func (b *Batch) stageResult(r *ptdf.PerfResultRec) {
	k := len(b.rows) - 1
	switch {
	case k < 0:
		b.rows = append(b.rows, make([]resultRow, 0, firstChunk))
		k = 0
	case len(b.rows[k]) == resultChunk:
		b.rows = append(b.rows, make([]resultRow, 0, resultChunk))
		k++
	case len(b.rows[k]) == cap(b.rows[k]): // the first chunk, short of resultChunk
		b.rows[k] = append(make([]resultRow, 0, 2*cap(b.rows[k])), b.rows[k]...)
	}
	b.order = append(b.order, int32(k*resultChunk+len(b.rows[k])))
	b.rows[k] = append(b.rows[k], b.rowOf(r.Sets, r.Exec, r.Tool, r.Metric, r.Units, r.Value))
}

// Decode stages every record of a PTdf document, result lines straight
// from the reader's buffer into rows. It stops at the first bad line,
// with an error naming it, and before any line once ctx is done; either
// way it rolls the batch back.
func (b *Batch) Decode(ctx context.Context, r io.Reader) error {
	if b.done {
		return ErrBatchDone
	}
	pr := ptdf.NewReader(r)
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
func (b *Batch) Len() int { return len(b.order) }

// CommitCtx applies every staged record in order inside one writer
// critical section: one engine transaction, one generation bump, and one
// write of the engine's log. Each distinct name and
// resource set resolves once per commit. On error nothing of the batch
// remains (the transaction rolls back and the names directory is
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
	if len(b.order) == 0 {
		return LoadStats{}, nil
	}
	s := b.s
	_, span := obs.StartSpan(ctx, "datastore.batch.commit")
	span.Annotate("records", strconv.Itoa(len(b.order)))
	defer span.End()
	c := commitState{
		execs:   make([]int64, len(b.execs.vals)),
		tools:   make([]int64, len(b.tools.vals)),
		metrics: make([]int64, len(b.metrics.vals)),
		units:   make([]int64, len(b.units.vals)),
		sets:    make([]resolvedSet, len(b.sets.vals)),
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
	var err error
	for i, o := range b.order {
		if o >= 0 {
			_, err = s.loadResultLocked(b, &b.rows[o/resultChunk][o%resultChunk], &c)
		} else {
			err = s.loadRecordLocked(b, b.others[^o], &c)
		}
		if err != nil {
			if len(b.order) > 1 {
				err = fmt.Errorf("datastore: record %d: %w", i+1, err)
			}
			break
		}
	}
	if err == nil {
		if beforeCommit != nil {
			beforeCommit(s)
		}
		err = s.tx.Commit()
	}
	if err != nil {
		s.tel.batchRollbacks.Add(1)
		span.Annotate("outcome", "rollback")
		return LoadStats{}, s.rollbackLoad(s.tx, err)
	}
	s.tel.batchCommits.Add(1)
	s.tel.recordsLoaded.Add(uint64(len(b.order)))
	c.stats.Records = len(b.order)
	return c.stats, nil
}

// Rollback discards the staged records. The store is untouched — staging
// never reaches it — so rollback of an uncommitted batch is free.
func (b *Batch) Rollback() {
	*b = Batch{s: b.s, done: true}
}
