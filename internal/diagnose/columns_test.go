package diagnose

// Differential and allocation tests of the column readers: feature
// extraction and compare.ExecutionsCtx fold performance_result and
// result_has_focus blocks, and must give the very floats a fold over
// materialized results gives, on every storage shape a block read meets.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// loadRecs commits records as one batch.
func loadRecs(t testing.TB, s *datastore.Store, recs []ptdf.Record) {
	t.Helper()
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
}

// studyRecs converts one generated execution of a Table 1 dataset kind.
func studyRecs(t *testing.T, spec gen.ExecSpec) []ptdf.Record {
	t.Helper()
	dir := filepath.Join(t.TempDir(), spec.Execution)
	if _, err := gen.WriteExecution(dir, spec); err != nil {
		t.Fatal(err)
	}
	recs, err := gen.ConvertExecution(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// messageRecs renders an execution of multi-context results: a primary
// context of process, function, application and time phase, and a sender
// context whose process and phase overlap it by name or by base name.
// Keys repeat, so several values fold into one mean, and values carry
// enough digits that the order of the additions shows in the sum; the
// results of one key differ in their time resources' names and in their
// units, so a pair's context and units show which result came first.
func messageRecs(exec string, seed int64) []ptdf.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := []ptdf.Record{
		ptdf.ApplicationRec{Name: "irs"},
		ptdf.ExecutionRec{Name: exec, App: "irs"},
		ptdf.ResourceRec{Name: "/irs", Type: "application"},
		ptdf.ResourceRec{Name: core.ResourceName("/" + exec), Type: "execution", Exec: exec},
	}
	proc := func(p int) core.ResourceName { return core.ResourceName(fmt.Sprintf("/%s/p%d", exec, p)) }
	phase := func(root, name string) core.ResourceName {
		return core.ResourceName(fmt.Sprintf("/%s-%s/%s", exec, root, name))
	}
	for p := 0; p < 4; p++ {
		recs = append(recs, ptdf.ResourceRec{Name: proc(p), Type: "execution/process", Exec: exec})
	}
	for _, root := range []string{"wall", "cpu", "sys"} {
		for _, name := range []string{"init", "solve"} {
			recs = append(recs, ptdf.ResourceRec{Name: phase(root, name), Type: "time/interval", Exec: exec})
		}
	}
	for f := 0; f < 3; f++ {
		recs = append(recs, ptdf.ResourceRec{Name: core.ResourceName(fmt.Sprintf("/msgbuild/m/f%d", f)), Type: "build/module/function"})
	}
	for rep := 0; rep < 3; rep++ {
		for p := 0; p < 4; p++ {
			for f := 0; f < 3; f++ {
				for _, name := range []string{"init", "solve"} {
					primary := []core.ResourceName{"/irs", proc(p), core.ResourceName(fmt.Sprintf("/msgbuild/m/f%d", f)), phase("wall", name)}
					sender := []core.ResourceName{proc((p + rep) % 4), phase([]string{"cpu", "cpu", "sys"}[rep], name)}
					for m, metric := range []string{"bytes sent", "send time"} {
						units := []string{"bytes", "seconds"}[m]
						if rep == 2 {
							units = []string{"B", "sec"}[m]
						}
						recs = append(recs, ptdf.PerfResultRec{
							Exec: exec, Tool: "msgtool", Metric: metric, Units: units, Value: 1000 * rng.Float64(),
							Sets: []ptdf.ResourceSet{
								{Names: primary, Type: core.FocusPrimary},
								{Names: sender, Type: core.FocusSender},
							},
						})
					}
				}
			}
		}
	}
	return recs
}

// refKey is the alignment key of one materialized result: its metric
// and the sorted tokens of its portable resources.
func refKey(t *testing.T, s *datastore.Store, pr *core.PerformanceResult) string {
	t.Helper()
	var tokens []string
	for _, r := range pr.AllResources() {
		tp, err := s.TypeOfResource(r)
		if err != nil {
			t.Fatal(err)
		}
		switch root := tp.Root(); {
		case root == "grid" || root == "execution" || root == "submission":
		case root == "time":
			tokens = append(tokens, "time:"+r.BaseName())
		default:
			tokens = append(tokens, string(tp)+":"+string(r))
		}
	}
	sort.Strings(tokens)
	return pr.Metric + "\x00" + strings.Join(tokens, "\x00")
}

// materialized returns an execution's result IDs and its results.
func materialized(t *testing.T, s *datastore.Store, exec string) ([]int64, []*core.PerformanceResult) {
	t.Helper()
	ids, err := s.ExecutionResultIDs(exec)
	if err != nil {
		t.Fatal(err)
	}
	prs, err := s.MaterializeResults(ids)
	if err != nil {
		t.Fatal(err)
	}
	return ids, prs
}

// refCompare aligns two executions over their materialized results, one
// string key per result.
func refCompare(t *testing.T, s *datastore.Store, execA, execB string) *compare.Comparison {
	t.Helper()
	type keyed struct {
		ids []int64
		prs []*core.PerformanceResult
	}
	load := func(exec string) map[string]*keyed {
		ids, prs := materialized(t, s, exec)
		out := make(map[string]*keyed)
		for i, pr := range prs {
			k := refKey(t, s, pr)
			if out[k] == nil {
				out[k] = &keyed{}
			}
			out[k].ids = append(out[k].ids, ids[i])
			out[k].prs = append(out[k].prs, pr)
		}
		return out
	}
	mean := func(prs []*core.PerformanceResult) float64 {
		sum := 0.0
		for _, pr := range prs {
			sum += pr.Value
		}
		return sum / float64(len(prs))
	}
	sortedKeys := func(m map[string]*keyed) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	a, b := load(execA), load(execB)
	cmp := &compare.Comparison{ExecA: execA, ExecB: execB}
	for _, k := range sortedKeys(a) {
		as, bs := a[k], b[k]
		if bs == nil {
			cmp.OnlyA = append(cmp.OnlyA, as.ids...)
			continue
		}
		first := as.prs[0]
		p := compare.Pair{Metric: first.Metric, Units: first.Units, A: mean(as.prs), B: mean(bs.prs)}
		for _, r := range first.AllResources() {
			tp, _ := s.TypeOfResource(r)
			if root := tp.Root(); root != "grid" && root != "execution" && root != "submission" {
				p.Context = append(p.Context, r)
			}
		}
		cmp.Pairs = append(cmp.Pairs, p)
	}
	for _, k := range sortedKeys(b) {
		if a[k] == nil {
			cmp.OnlyB = append(cmp.OnlyB, b[k].ids...)
		}
	}
	slices.Sort(cmp.OnlyA)
	slices.Sort(cmp.OnlyB)
	return cmp
}

// refFeatures folds materialized results the way extractFeatures folds
// columns: executions in side order, results ascending by ID.
func refFeatures(t *testing.T, s *datastore.Store, execsA, execsB []string, metric string) ([]profile, map[string]*metricAgg) {
	t.Helper()
	var profiles []profile
	metrics := make(map[string]*metricAgg)
	for i, exec := range append(append([]string(nil), execsA...), execsB...) {
		_, prs := materialized(t, s, exec)
		slow := i >= len(execsA)
		p := profile{name: exec, slow: slow}
		sum, cnt := 0.0, 0
		for _, pr := range prs {
			agg := metrics[pr.Metric]
			if agg == nil {
				agg = &metricAgg{name: pr.Metric, units: pr.Units}
				metrics[pr.Metric] = agg
			}
			if slow {
				agg.sumB += pr.Value
				agg.nB++
			} else {
				agg.sumA += pr.Value
				agg.nA++
			}
			if metric != "" && pr.Metric == metric || metric == "" && strings.Contains(pr.Units, "second") {
				sum += pr.Value
				cnt++
			}
		}
		if cnt > 0 {
			p.perf, p.perfOK = sum/float64(cnt), true
		}
		profiles = append(profiles, p)
	}
	return profiles, metrics
}

// same is float equality to the bit, NaN included.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkCompare(t *testing.T, s *datastore.Store, execA, execB string, wantPairs bool) {
	t.Helper()
	got, err := compare.ExecutionsCtx(context.Background(), s, execA, execB)
	if err != nil {
		t.Fatal(err)
	}
	want := refCompare(t, s, execA, execB)
	if wantPairs && len(want.Pairs) == 0 {
		t.Fatalf("%s vs %s: the reference pairs nothing", execA, execB)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s vs %s: %d pairs, reference %d", execA, execB, len(got.Pairs), len(want.Pairs))
	}
	for i, g := range got.Pairs {
		w := want.Pairs[i]
		if g.Metric != w.Metric || g.Units != w.Units || !reflect.DeepEqual(g.Context, w.Context) || !same(g.A, w.A) || !same(g.B, w.B) {
			t.Fatalf("%s vs %s: pair %d = %+v, reference %+v", execA, execB, i, g, w)
		}
	}
	if !reflect.DeepEqual(got.OnlyA, want.OnlyA) || !reflect.DeepEqual(got.OnlyB, want.OnlyB) {
		t.Fatalf("%s vs %s: unpaired %v / %v, reference %v / %v", execA, execB, got.OnlyA, got.OnlyB, want.OnlyA, want.OnlyB)
	}
}

func checkFeatures(t *testing.T, s *datastore.Store, execsA, execsB []string, metric string) {
	t.Helper()
	f, err := extractFeatures(context.Background(), s, execsA, execsB, metric, 2)
	if err != nil {
		t.Fatal(err)
	}
	profiles, metrics := refFeatures(t, s, execsA, execsB, metric)
	for i, w := range profiles {
		g := f.profiles[i]
		if g.name != w.name || g.slow != w.slow || g.perfOK != w.perfOK || !same(g.perf, w.perf) {
			t.Fatalf("metric %q: profile %d = %+v, reference %+v", metric, i, g, w)
		}
	}
	if len(f.metrics) != len(metrics) {
		t.Fatalf("metric %q: %d metrics, reference %d", metric, len(f.metrics), len(metrics))
	}
	for name, w := range metrics {
		g := f.metrics[name]
		if g == nil || g.units != w.units || g.nA != w.nA || g.nB != w.nB || !same(g.sumA, w.sumA) || !same(g.sumB, w.sumB) {
			t.Fatalf("metric %q: aggregate %q = %+v, reference %+v", metric, name, g, w)
		}
	}
	// Every context resource of an execution's results is in its footprint.
	for i, exec := range append(append([]string(nil), execsA...), execsB...) {
		_, prs := materialized(t, s, exec)
		for _, pr := range prs {
			for _, r := range pr.AllResources() {
				id, _ := s.LookupDict("resource_item", string(r))
				if !containsInt(f.resExecs[id], i) {
					t.Fatalf("footprint of %s lacks context resource %s", exec, r)
				}
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func hotTable(t *testing.T, s *datastore.Store, table string) reldb.SegmentTableStatus {
	t.Helper()
	for _, st := range s.Engine().SegmentStats().Tables {
		if st.Table == table {
			return st
		}
	}
	t.Fatalf("%s is not a hot table", table)
	return reldb.SegmentTableStatus{}
}

// TestColumnFoldsMatchMaterializedFolds checks feature extraction and
// execution comparison against folds over materialized results with bit
// equality on every float: first on rows that are all in columnar tails,
// then with segments plus a tail, then with segments a delete replaced and
// a load landing after it. The data mixes IRS and
// SMG/mpiP runs (caller/callee contexts) with multi-context results whose
// foci overlap by name and whose time phases align by base name.
func TestColumnFoldsMatchMaterializedFolds(t *testing.T) {
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	for _, m := range gen.Catalog() {
		loadRecs(t, s, m.ToPTdf(2))
	}
	load := func(round int, irsMachine string) {
		t.Helper()
		loadRecs(t, s, studyRecs(t, gen.ExecSpec{Kind: gen.KindIRS, Execution: fmt.Sprintf("irs-%d", round), App: "irs", Machine: irsMachine, NProcs: 8, Seed: int64(round + 1)}))
		loadRecs(t, s, studyRecs(t, gen.ExecSpec{Kind: gen.KindSMGUV, Execution: fmt.Sprintf("uv-%d", round), App: "smg2000", Machine: "UV", NProcs: 8, Seed: int64(round + 10)}))
		loadRecs(t, s, messageRecs(fmt.Sprintf("msg-%d", round), int64(round+20)))
	}
	check := func(execs ...string) {
		t.Helper()
		for _, a := range execs {
			for _, b := range execs {
				if a != b && a[:2] == b[:2] {
					checkCompare(t, s, a, b, true)
				}
			}
		}
		checkCompare(t, s, execs[0], execs[len(execs)-1], false)
		// Sides holding one metric in several executions each.
		for _, half := range []int{2, 4} {
			for _, metric := range []string{"", "send time", "no such metric"} {
				checkFeatures(t, s, execs[:half], execs[half:], metric)
			}
		}
	}

	load(0, "MCR")
	load(1, "Frost")
	if st := hotTable(t, s, "performance_result"); st.Segments != 0 || st.PendingRows == 0 {
		t.Fatalf("before compaction: performance_result = %+v, want every row in the tail", st)
	}
	check("irs-0", "uv-0", "msg-0", "irs-1", "uv-1", "msg-1")

	if err := s.Engine().CompactSegments(); err != nil {
		t.Fatal(err)
	}
	load(2, "MCR")
	if st := hotTable(t, s, "performance_result"); st.Segments == 0 || st.PendingRows == 0 {
		t.Fatalf("after compaction: performance_result = %+v, want segments and a tail", st)
	}
	check("irs-0", "uv-0", "msg-0", "irs-2", "uv-2", "msg-2")

	if err := s.DeleteExecution("irs-1"); err != nil {
		t.Fatal(err)
	}
	load(3, "Frost")
	for _, table := range []string{"performance_result", "result_has_focus"} {
		if st := hotTable(t, s, table); st.Segments == 0 || st.PendingRows == 0 {
			t.Fatalf("after a delete: %s = %+v, want replaced segments and a tail", table, st)
		}
	}
	check("irs-0", "uv-2", "msg-0", "irs-3", "uv-3", "msg-3")
}

// repeatStore is a diagnosis fleet in which every result is measured
// repeats times at the same place: more results, the same executions,
// foci, metrics and attributes.
func repeatStore(t *testing.T, repeats int) (*datastore.Store, *gen.Fleet) {
	t.Helper()
	fleet, err := gen.FleetRecords(gen.FleetSpec{Execs: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var recs []ptdf.Record
	for _, rec := range fleet.Records {
		pr, ok := rec.(ptdf.PerfResultRec)
		if !ok {
			recs = append(recs, rec)
			continue
		}
		for r := 0; r < repeats; r++ {
			pr.Value *= 1.001
			recs = append(recs, pr)
		}
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	loadRecs(t, s, recs)
	return s, fleet
}

// TestDiagnoseAllocsIndependentOfResults: a diagnosis reads columns and
// keys its work by focus, so what it allocates follows the executions,
// foci, metrics and attributes it meets, not the number of results each
// execution holds.
func TestDiagnoseAllocsIndependentOfResults(t *testing.T) {
	allocs := func(repeats int) float64 {
		s, fleet := repeatStore(t, repeats)
		sets := Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow, Workers: 1}
		pair := Spec{ExecA: fleet.Fast[0], ExecB: fleet.Slow[0], Workers: 1}
		return testing.AllocsPerRun(5, func() {
			for _, sp := range []Spec{sets, pair} {
				if _, err := Run(context.Background(), s, sp); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	base, doubled := allocs(64), allocs(128)
	t.Logf("allocations per diagnosis: %.0f at 64 repeats, %.0f at 128", base, doubled)
	if doubled > 1.1*base {
		t.Fatalf("doubling the results per execution took allocations from %.0f to %.0f per diagnosis, want within 10%%", base, doubled)
	}
}
