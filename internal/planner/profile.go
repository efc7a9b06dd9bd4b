package planner

// EXPLAIN ANALYZE-grade execution profiles. Every planner execution
// carries an ExecProfile recording what the chosen access path actually
// did — rows visited, segment blocks scanned vs. zone-map-pruned,
// tail rows, kernel vs. merge wall time, per-worker row loads —
// alongside the coarse plan/exec timing split. Collection is a handful
// of counter increments and ~6 time.Now calls per query, so it is
// always on (the A/B overhead bound in EXPERIMENTS.md holds it under
// noise); the profile only reaches the wire when a caller asks for it
// (SQLRequest.Analyze, ptsql -analyze) or through the server's
// slow-query ring.

import (
	"fmt"
	"strings"
	"time"
)

// ExecProfile records the per-operator actuals of one query execution.
// It is written only by the sequential coordinator of the execution
// (workers report through precomputed partition sizes and wall-clock
// windows), so no field needs atomics. A cache hit returns the profile
// of the execution that populated the entry.
type ExecProfile struct {
	start time.Time

	PlanNanos int64 // WHERE analysis, statistics, access-path choice
	ExecNanos int64 // scan, aggregation, materialization, projection

	RowsScanned  int64 // rows the access path visited (pre-residual)
	RowsReturned int64 // rows in the finished result set

	SegmentRows   int64 // rows decoded from columnar segment blocks
	TailRows      int64 // rows visited in the tail above the watermark
	BlocksScanned int   // segment blocks visited
	BlocksPruned  int   // segment blocks skipped by zone maps

	KernelNanos int64   // wall time of the (parallel) block-kernel fan-out
	MergeNanos  int64   // accumulator merge + ordered emission
	WorkerRows  []int64 // segment rows assigned per worker part
}

// newExecProfile starts the clock for one execution.
func newExecProfile() *ExecProfile { return &ExecProfile{start: time.Now()} }

// markPlanned closes the planning window: everything before this call
// counts as PlanNanos, everything after as ExecNanos.
func (ep *ExecProfile) markPlanned() {
	if ep == nil {
		return
	}
	ep.PlanNanos = time.Since(ep.start).Nanoseconds()
}

// finish closes the execution window and records the result cardinality.
func (ep *ExecProfile) finish(rows int) {
	if ep == nil {
		return
	}
	ep.RowsReturned = int64(rows)
	ep.ExecNanos = time.Since(ep.start).Nanoseconds() - ep.PlanNanos
}

// cardinalityError is the planner's estimation error for this
// execution: |est-actual| / max(actual, 1). 0 is a perfect estimate; 1
// means off by the actual cardinality itself.
func cardinalityError(est, actual int64) float64 {
	diff := est - actual
	if diff < 0 {
		diff = -diff
	}
	den := actual
	if den < 1 {
		den = 1
	}
	return float64(diff) / float64(den)
}

// ExecProfileWire is the JSON form of an execution profile, attached to
// PlanWire when a request asks for analyze output. Fields are
// append-only, like every v1 wire shape.
type ExecProfileWire struct {
	PlanNanos        int64   `json:"plan_nanos"`
	ExecNanos        int64   `json:"exec_nanos"`
	RowsScanned      int64   `json:"rows_scanned"`
	RowsReturned     int64   `json:"rows_returned"`
	SegmentRows      int64   `json:"segment_rows"`
	TailRows         int64   `json:"tail_rows"`
	BlocksScanned    int     `json:"blocks_scanned"`
	BlocksPruned     int     `json:"blocks_pruned"`
	KernelNanos      int64   `json:"kernel_nanos"`
	MergeNanos       int64   `json:"merge_nanos"`
	WorkerRows       []int64 `json:"worker_rows,omitempty"`
	CacheHit         bool    `json:"cache_hit"`
	CardinalityError float64 `json:"cardinality_error"`
}

// ProfileWire renders the plan's profile (nil when the execution
// carried none). The server's slow-query capture uses it directly; the
// analyze wire form attaches it via WireAnalyze.
func (p *Plan) ProfileWire() *ExecProfileWire {
	ep := p.Profile
	if ep == nil {
		return nil
	}
	return &ExecProfileWire{
		PlanNanos:        ep.PlanNanos,
		ExecNanos:        ep.ExecNanos,
		RowsScanned:      ep.RowsScanned,
		RowsReturned:     ep.RowsReturned,
		SegmentRows:      ep.SegmentRows,
		TailRows:         ep.TailRows,
		BlocksScanned:    ep.BlocksScanned,
		BlocksPruned:     ep.BlocksPruned,
		KernelNanos:      ep.KernelNanos,
		MergeNanos:       ep.MergeNanos,
		WorkerRows:       append([]int64(nil), ep.WorkerRows...),
		CacheHit:         p.CacheHit,
		CardinalityError: cardinalityError(p.EstRows, p.ActualRows),
	}
}

// fmtNanos renders a nanosecond duration compactly for analyze output.
func fmtNanos(n int64) string {
	return time.Duration(n).Round(time.Microsecond).String()
}

// Text renders the profile as indented analyze lines, matching the
// Plan.Text style.
func (w *ExecProfileWire) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  profile: plan %s, exec %s", fmtNanos(w.PlanNanos), fmtNanos(w.ExecNanos))
	if w.KernelNanos > 0 || w.MergeNanos > 0 {
		fmt.Fprintf(&b, " (kernels %s, merge %s)", fmtNanos(w.KernelNanos), fmtNanos(w.MergeNanos))
	}
	fmt.Fprintf(&b, "\n  scanned: %d rows", w.RowsScanned)
	if w.BlocksScanned > 0 || w.BlocksPruned > 0 {
		fmt.Fprintf(&b, " (%d segment rows in %d blocks, %d blocks pruned, %d tail rows)",
			w.SegmentRows, w.BlocksScanned, w.BlocksPruned, w.TailRows)
	}
	fmt.Fprintf(&b, "\n  returned: %d rows, cardinality error %.2f", w.RowsReturned, w.CardinalityError)
	if len(w.WorkerRows) > 0 {
		fmt.Fprintf(&b, "\n  workers: %d parts, rows per part %v", len(w.WorkerRows), w.WorkerRows)
	}
	if w.CacheHit {
		b.WriteString("\n  profile is from the execution that filled the cache entry")
	}
	return b.String()
}
