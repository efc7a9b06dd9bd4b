package planner

import (
	"fmt"
	"strings"

	"perftrack/internal/datastore"
	"perftrack/internal/query"
)

// PlanWire is the explain payload every v1 endpoint shares: /v1/sql and
// /v1/query attach exactly this shape when a request sets explain, and
// the ptsql/ptquery CLIs render it through the one Format function.
// Profile is attached only on analyze requests (SQLRequest.Analyze,
// ptsql -analyze) — plain explain output stays byte-stable.
type PlanWire struct {
	Plan       string           `json:"plan"`
	Strategy   string           `json:"strategy"`
	EstRows    int64            `json:"est_rows"`
	ActualRows int64            `json:"actual_rows"`
	Profile    *ExecProfileWire `json:"profile,omitempty"`
}

// Wire renders the plan into its wire shape, without the profile.
func (p *Plan) Wire() *PlanWire {
	return &PlanWire{
		Plan:       p.Text(),
		Strategy:   p.Strategy,
		EstRows:    p.EstRows,
		ActualRows: p.ActualRows,
	}
}

// WireAnalyze renders the plan with its execution profile attached —
// the EXPLAIN ANALYZE form.
func (p *Plan) WireAnalyze() *PlanWire {
	w := p.Wire()
	w.Profile = p.ProfileWire()
	return w
}

// Text renders the plan as indented text, one clause per line.
func (p *Plan) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan %s strategy=%s est_rows=%d actual_rows=%d",
		p.Table, p.Strategy, p.EstRows, p.ActualRows)
	if len(p.Pushed) > 0 {
		fmt.Fprintf(&b, "\n  pushed: %s", strings.Join(p.Pushed, ", "))
	}
	if p.Residual {
		b.WriteString("\n  residual: remaining WHERE re-checked per row")
	}
	if p.Aggregate {
		b.WriteString("\n  aggregate: pushed below materialization (0 rows built)")
	} else {
		fmt.Fprintf(&b, "\n  materialized: %d rows", p.Materialized)
	}
	if p.Profile != nil && p.Profile.BlocksScanned > 0 {
		fmt.Fprintf(&b, "\n  vectorized: segment kernels, %d workers", p.Workers)
	}
	if p.CacheHit {
		b.WriteString("\n  cache: result served from plan cache")
	}
	if len(p.Alternatives) > 0 {
		fmt.Fprintf(&b, "\n  cost: %s", strings.Join(p.Alternatives, " "))
	}
	return b.String()
}

// Format renders a wire plan for CLI -explain output. ptquery and ptsql
// share it so both print plans identically.
func Format(w *PlanWire) string {
	if w == nil {
		return ""
	}
	var b strings.Builder
	for _, line := range strings.Split(w.Plan, "\n") {
		b.WriteString("  " + line + "\n")
	}
	if w.Profile != nil {
		for _, line := range strings.Split(w.Profile.Text(), "\n") {
			b.WriteString(line + "\n")
		}
	}
	fmt.Fprintf(&b, "  estimated %d rows, actual %d (strategy %s)\n",
		w.EstRows, w.ActualRows, w.Strategy)
	return b.String()
}

// PRFilterPlan describes one resolved selection — a pr-filter,
// optionally restricted to named executions — in the shared wire shape,
// so explain on /v1/query matches explain on /v1/sql.
func PRFilterPlan(st *datastore.Store, sel *query.Selection, res *query.Resolution) *PlanWire {
	stats := st.TableStatistics()
	total := stats.TableStat("performance_result").Rows
	p := Plan{
		Table:      "performance_result",
		Strategy:   StrategyFullScan,
		EstRows:    total,
		ActualRows: int64(res.Len()),
	}
	if len(res.Filters) > 0 {
		p.Strategy = familiesStrategy(res.Filters)
		p.EstRows = estimateFamilies(stats, res.Filters)
		for _, f := range sel.Families {
			p.Pushed = append(p.Pushed, fmt.Sprintf("family=%q", f))
		}
	}
	if executions := sel.ExecutionList(); len(executions) > 0 {
		if p.Strategy == StrategyFullScan {
			p.Strategy = StrategyIndex // execution_id index lookup
		}
		if d := stats.TableStat("execution").DistinctKeys; d > 0 {
			if est := total * int64(len(executions)) / d; est < p.EstRows {
				p.EstRows = est
			}
		}
		if p.EstRows < 1 {
			p.EstRows = 1
		}
		for _, e := range executions {
			p.Pushed = append(p.Pushed, fmt.Sprintf("execution=%q", e))
		}
	}
	return p.Wire()
}
