package datastore

import (
	"cmp"
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

// commitState is what one CommitCtx has resolved of its batch — the ID of
// each staged name (0 until resolved) and each staged set's resolution —
// and the statistics of what it applied. It lives no longer than the
// transaction: the IDs may be the transaction's own.
type commitState struct {
	execs, tools, metrics, units []int64
	sets                         []resolvedSet
	stats                        LoadStats

	// The storage the sets' contexts and foci are cut from.
	contexts []core.Context
	foci     []int64
}

// resolvedSet is what one transaction has made of a resource set: its
// contexts, whether they passed validation, and, once a result naming it
// has been linked, the distinct foci such a result links to, in link
// order.
type resolvedSet struct {
	contexts []core.Context // nil until first used
	valid    bool
	foci     []int64 // nil until a result's foci all resolved
}

// set returns the resolution of the batch's set i, making its contexts on
// first use.
func (c *commitState) set(b *Batch, i int32) *resolvedSet {
	rs := &c.sets[i]
	if rs.contexts == nil {
		from := len(c.contexts)
		for _, set := range b.dict.Sets[i] {
			c.contexts = append(c.contexts, core.Context{Type: set.Type, Resources: set.Names})
		}
		rs.contexts = c.contexts[from:len(c.contexts):len(c.contexts)]
	}
	return rs
}

// internOnce is intern for the batch's name i of one kind, whose ID ids
// keeps for the rest of the commit.
func (s *Store) internOnce(ids []int64, i int32, k int, name string) (int64, error) {
	if ids[i] == 0 {
		id, err := s.intern(k, name)
		if err != nil {
			return 0, err
		}
		ids[i] = id
	}
	return ids[i], nil
}

// loadResultLocked checks one staged result row, resolves its names and
// set — each distinct one of the batch once — and inserts it, returning
// its ID. Callers hold s.wmu.
func (s *Store) loadResultLocked(b *Batch, row *ptdf.Result, c *commitState) (int64, error) {
	rs := c.set(b, row.Set)
	names := b.dict.Names
	metric := names[row.Metric]
	if metric == "" || !rs.valid {
		pr := core.PerformanceResult{Metric: metric, Contexts: rs.contexts}
		if err := pr.Validate(); err != nil {
			return 0, fmt.Errorf("%w: %w", err, ErrBadSpec)
		}
		rs.valid = true
	}
	exec := c.execs[row.Exec]
	if exec == 0 {
		name := names[row.Exec]
		id, ok := s.names.id(dictExecution, name)
		if !ok {
			return 0, fmt.Errorf("datastore: unknown execution %q: %w", name, ErrNotFound)
		}
		c.execs[row.Exec], exec = id, id
	}
	metricID, err := s.internOnce(c.metrics, row.Metric, dictMetric, metric)
	if err != nil {
		return 0, err
	}
	tool, err := s.internOnce(c.tools, row.Tool, dictTool, cmp.Or(names[row.Tool], "unknown"))
	if err != nil {
		return 0, err
	}
	units, err := s.internOnce(c.units, row.Units, dictUnits, cmp.Or(names[row.Units], "unitless"))
	if err != nil {
		return 0, err
	}
	c.stats.Results++
	return s.insertResultLocked(c, exec, metricID, tool, units, row.Value, rs)
}

// loadRecordLocked applies one staged record that is not a result row and
// counts it in c's statistics. Callers hold s.wmu.
func (s *Store) loadRecordLocked(b *Batch, rec ptdf.Record, c *commitState) error {
	st := &c.stats
	switch r := rec.(type) {
	case ptdf.ApplicationRec:
		st.Apps++
		_, err := s.addApplicationLocked(r.Name)
		return err
	case ptdf.ResourceTypeRec:
		st.Types++
		return s.addResourceTypeLocked(r.Type)
	case ptdf.ExecutionRec:
		st.Executions++
		_, err := s.addExecutionLocked(r.Name, r.App)
		return err
	case ptdf.ResourceRec:
		st.Resources++
		_, err := s.addResourceLocked(r.Name, r.Type, r.Exec)
		return err
	case ptdf.ResourceAttributeRec:
		st.Attributes++
		if r.AttrType == "resource" {
			// Adding a resource-typed attribute is equivalent to adding a
			// resource constraint (Figure 6).
			return s.addResourceConstraintLocked(r.Resource, core.ResourceName(r.Value))
		}
		return s.setResourceAttributeLocked(r.Resource, r.Attr, r.Value)
	case ptdf.ResourceConstraintRec:
		st.Constraints++
		return s.addResourceConstraintLocked(r.R1, r.R2)
	case ptdf.PerfHistogramRec:
		return s.loadHistogramLocked(b, &r, c)
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
// generation bump, one write of the log (one group). A bad record
// (decode or apply) leaves no trace of the document behind; the error
// names the failing record. Concurrent loads decode in parallel and
// serialize only at commit. When a trace rides ctx, the decode and
// commit phases record datastore.load.decode and datastore.batch.commit
// spans in the request's span tree.
func (s *Store) LoadPTdfCtx(ctx context.Context, r io.Reader) (LoadStats, error) {
	_, dspan := obs.StartSpan(ctx, "datastore.load.decode")
	b := s.NewBatch()
	if err := b.Decode(ctx, r); err != nil {
		dspan.Annotate("outcome", "decode-error")
		dspan.End()
		return LoadStats{}, err
	}
	dspan.Annotate("records", strconv.Itoa(b.Len()))
	dspan.End()
	return b.CommitCtx(ctx)
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
