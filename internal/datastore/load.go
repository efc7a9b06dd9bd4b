package datastore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"perftrack/internal/core"
	"perftrack/internal/obs"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// LoadStats summarizes one PTdf load, feeding the Table 1 statistics.
type LoadStats struct {
	Records     int
	Types       int
	Apps        int
	Executions  int
	Resources   int
	Attributes  int
	Constraints int
	Results     int
}

// Add accumulates another load's statistics.
func (ls *LoadStats) Add(o LoadStats) {
	ls.Records += o.Records
	ls.Types += o.Types
	ls.Apps += o.Apps
	ls.Executions += o.Executions
	ls.Resources += o.Resources
	ls.Attributes += o.Attributes
	ls.Constraints += o.Constraints
	ls.Results += o.Results
}

// loadRecordLocked applies one PTdf record. Callers hold s.wmu.
func (s *Store) loadRecordLocked(rec ptdf.Record) error {
	switch r := rec.(type) {
	case ptdf.ApplicationRec:
		_, err := s.addApplicationLocked(r.Name)
		return err
	case ptdf.ResourceTypeRec:
		return s.addResourceTypeLocked(r.Type)
	case ptdf.ExecutionRec:
		_, err := s.addExecutionLocked(r.Name, r.App)
		return err
	case ptdf.ResourceRec:
		_, err := s.addResourceLocked(r.Name, r.Type, r.Exec)
		return err
	case ptdf.ResourceAttributeRec:
		if r.AttrType == "resource" {
			// Adding a resource-typed attribute is equivalent to adding a
			// resource constraint (Figure 6).
			return s.addResourceConstraintLocked(r.Resource, core.ResourceName(r.Value))
		}
		return s.setResourceAttributeLocked(r.Resource, r.Attr, r.Value)
	case ptdf.ResourceConstraintRec:
		return s.addResourceConstraintLocked(r.R1, r.R2)
	case ptdf.PerfResultRec:
		pr := &core.PerformanceResult{
			Execution: r.Exec,
			Metric:    r.Metric,
			Value:     r.Value,
			Units:     r.Units,
			Tool:      r.Tool,
			Contexts:  r.Contexts(),
		}
		_, err := s.addPerfResultLocked(pr)
		return err
	case ptdf.PerfHistogramRec:
		pr := &core.PerformanceResult{
			Execution: r.Exec,
			Metric:    r.Metric,
			Units:     r.Units,
			Tool:      r.Tool,
			Contexts:  r.Contexts(),
		}
		_, err := s.addHistogramResultLocked(pr, r.BinWidth, r.Values)
		return err
	default:
		return fmt.Errorf("datastore: unknown PTdf record %T: %w", rec, ErrBadSpec)
	}
}

// LoadPTdf is LoadPTdfCtx without a context, kept only because
// bench/e2e's frozen replay calls it.
func (s *Store) LoadPTdf(r io.Reader) (LoadStats, error) {
	return s.LoadPTdfCtx(context.Background(), r)
}

// LoadPTdfCtx streams a PTdf document into the store atomically. The
// document decodes into a staged Batch outside every lock — a slow or
// partially-bad document costs nothing under the writer mutex — then
// commits in one critical section: one engine transaction, one
// generation bump, one flush of each log it touched. A bad record
// (decode or apply) leaves no trace of the document behind; the error
// names the failing record. Concurrent loads decode in parallel and
// serialize only at commit. When a trace rides ctx, the decode and
// commit phases record datastore.load.decode and datastore.batch.commit
// spans in the request's span tree.
func (s *Store) LoadPTdfCtx(ctx context.Context, r io.Reader) (LoadStats, error) {
	_, dspan := obs.StartSpan(ctx, "datastore.load.decode")
	b, err := s.decode(r)
	if err != nil {
		dspan.Annotate("outcome", "decode-error")
		dspan.End()
		return LoadStats{}, err
	}
	dspan.Annotate("records", strconv.Itoa(b.Len()))
	dspan.End()
	return b.CommitCtx(ctx)
}

// decode stages a whole PTdf document into a new batch, touching nothing
// of the store. It stops at the first bad record.
func (s *Store) decode(r io.Reader) (*Batch, error) {
	b := s.NewBatch()
	pr := ptdf.NewReader(r)
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", err, ErrBadSpec)
		}
		b.Stage(rec)
	}
}

// rollbackLoad drops a failed write's transaction — the engine never saw
// its rows — and reloads the names directory, which may hold IDs for
// them. Callers hold s.wmu.
func (s *Store) rollbackLoad(tx *reldb.Tx, cause error) error {
	_ = tx.Rollback() // cannot fail: the transaction is open
	if err := s.reloadNames(); err != nil {
		return errors.Join(cause, fmt.Errorf("datastore: names reload after rollback: %w", err))
	}
	return cause
}

// LoadPTdfFile loads one PTdf file from disk. A parse or load error rolls
// back the whole file.
func (s *Store) LoadPTdfFile(path string) (LoadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return LoadStats{}, err
	}
	defer f.Close()
	stats, err := s.LoadPTdfCtx(context.TODO(), f)
	if err != nil {
		return stats, fmt.Errorf("%s: %w", path, err)
	}
	return stats, nil
}
