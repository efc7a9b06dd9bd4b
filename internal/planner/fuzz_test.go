package planner

import "testing"

// FuzzSQLPlanner feeds arbitrary SQL through parse → plan → execute and
// holds two invariants: the planner never panics, and whenever a query
// runs at all, the planned execution returns exactly what the naive
// (no pushdown, direct B-tree scan) execution returns. The check runs
// over every storage shape holding the same corpus (differentialStores):
// stores in memory and in a directory whose rows are all in the tail, a
// store with compacted segments plus a tail, and a store with a replaced
// segment and overlapping runs — so every fuzzed query differential-tests
// the one executor over each block producer.
func FuzzSQLPlanner(f *testing.F) {
	type pair struct {
		label          string
		planned, naive *Planner
	}
	withWorkers(f, 2)
	var pairs []pair
	for _, s := range differentialStores(f, 64) {
		planned := New(s.st)
		naive := New(s.st)
		naive.Naive = true
		pairs = append(pairs, pair{s.label, planned, naive})
	}
	for _, q := range differentialQueries {
		f.Add(q)
	}
	f.Add("SELECT count(*) FROM performance_result WHERE family = 'attr=clock<=3'")
	f.Add("SELECT tool, units, sum(id) FROM performance_result GROUP BY tool, units")
	// Kernel seeds: every aggregate (count/sum/min/max/avg over value and
	// id), dictionary group-by shapes, selection kernels, and the
	// id-bounds fast path.
	f.Add("SELECT metric, min(value), max(value), sum(id), avg(id) FROM performance_result GROUP BY metric")
	f.Add("SELECT execution, metric, count(*) FROM performance_result GROUP BY execution, metric ORDER BY execution, metric")
	f.Add("SELECT sum(value) FROM performance_result WHERE value > 4 AND id <= 40")
	f.Add("SELECT id, value FROM performance_result WHERE metric = 'metric-3' AND value >= 2 ORDER BY id")
	f.Add("SELECT units, avg(value) FROM performance_result WHERE execution = 'exec-b' GROUP BY units")
	f.Add("SELECT metric, count(DISTINCT value) FROM performance_result WHERE family = 'type=application' GROUP BY metric")
	f.Fuzz(func(t *testing.T, q string) {
		for _, p := range pairs {
			checkPlannedMatchesNaive(t, p.label, p.planned, p.naive, q)
		}
	})
}
