package sqldb

// The door for groups the planner (internal/planner)
// pre-aggregated below materialization: its kernels hand over finished
// accumulators and FinishGrouped applies the rest of the statement, so SQL
// semantics — projection, HAVING, ORDER BY, DISTINCT, LIMIT — stay in
// this package.

import (
	"fmt"

	"perftrack/internal/reldb"
)

// HasAggregates reports whether a SELECT must run through the grouped
// executor: an explicit GROUP BY, or an aggregate call in the select list.
func HasAggregates(s *SelectStmt) bool {
	if len(s.GroupBy) > 0 {
		return true
	}
	for _, item := range s.Items {
		if item.Expr != nil && hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// Aggregator is one aggregate function's finished state for one group,
// built by NewFinishedAggregator from the planner kernels' partial
// state and read back by FinishGrouped.
type Aggregator struct {
	st *aggState
}

// NewFinishedAggregator builds an already-accumulated aggregate from the
// merged partial state the planner's kernels produce. The parts mirror
// aggState exactly so results stay bit-identical to the executor's own
// row-at-a-time grouping: count is the number of
// accumulated values (rows for COUNT(*), non-null inputs otherwise), sum
// and sumInt the float and integer running sums, allInt whether every
// input was an integer (true when count is zero), and min/max the
// extrema (Null when no value was seen — always Null for COUNT(*),
// whose accumulator never inspects values). DISTINCT aggregates cannot
// be reconstructed this way; the planner leaves them to Execute.
func NewFinishedAggregator(fe *FuncExpr, count int64, sum float64, sumInt int64, allInt bool, min, max reldb.Value) *Aggregator {
	st := newAggState(fe)
	st.count = count
	st.sum = sum
	st.sumInt = sumInt
	st.allInt = allInt
	st.min = min
	st.max = max
	st.started = !min.IsNull()
	return &Aggregator{st: st}
}

// PlannedGroup is one pre-aggregated group produced below materialization.
// Repr is a representative virtual-table row for the group (group-key
// columns populated, everything else null) and Aggs holds one finished
// accumulator per SelectAggregates entry, in that order.
type PlannedGroup struct {
	Repr reldb.Row
	Aggs []*Aggregator
}

// FinishGrouped completes a grouped SELECT whose aggregation was pushed
// below materialization: HAVING, projection, ORDER BY, DISTINCT, and
// LIMIT/OFFSET run here over the planner-built groups. An aggregate query
// with no GROUP BY and no groups still yields one row (COUNT(*) = 0).
func FinishGrouped(s *SelectStmt, columns []string, groups []PlannedGroup) (*Result, error) {
	aggs, err := SelectAggregates(s)
	if err != nil {
		return nil, err
	}
	ordered := make([]*group, 0, len(groups))
	for _, pg := range groups {
		if len(pg.Aggs) != len(aggs) {
			return nil, fmt.Errorf("sql: FinishGrouped group has %d aggregates, statement has %d",
				len(pg.Aggs), len(aggs))
		}
		g := &group{repr: pg.Repr}
		for _, a := range pg.Aggs {
			g.states = append(g.states, a.st)
		}
		ordered = append(ordered, g)
	}
	return finishGrouped(s, frameFor(s.From.name(), columns), aggs, ordered)
}
