package perftrack

// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// (or benchmark family) exists per table/figure, plus ablations for the
// design choices DESIGN.md calls out:
//
//	BenchmarkTable1Load/*        Table 1 — per-dataset load cost (the §4.2
//	                             "data load time" observation)
//	BenchmarkTable1PTdfGen/*     Table 1 — raw-data → PTdf conversion
//	BenchmarkFig3MatchCounts     Figure 3 — live per-family match counts
//	BenchmarkFig4TwoStepQuery    Figure 4 — retrieve + add columns
//	BenchmarkFig5Chart           Figure 5 — min/max load-balance chart
//	BenchmarkFig6PTdfParse       Figure 6 — PTdf parse throughput
//	BenchmarkParadynImport       §4.3 — Paradyn bundle → store
//	BenchmarkCompareExecutions   §6 operators on §4.1 data
//	BenchmarkDiagnose/*          automated diagnosis over a 100-exec fleet
//
// Ablations:
//
//	BenchmarkAncestryClosureVsWalk/*   closure tables vs parent-link walks
//	BenchmarkEngine/*                  memory vs file (WAL) engine loads
//	BenchmarkQuerySQLVsDirect/*        SQL layer vs direct relational API

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/diagnose"
	"perftrack/internal/experiments"
	"perftrack/internal/gen"
	"perftrack/internal/irs"
	"perftrack/internal/paradyn"
	"perftrack/internal/planner"
	"perftrack/internal/ptdf"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
)

// prepareExecutionRecords generates and converts one execution of the
// given dataset kind, returning its PTdf records.
func prepareExecutionRecords(b *testing.B, kind, machine string, nprocs int) []ptdf.Record {
	b.Helper()
	dir := b.TempDir()
	spec := gen.ExecSpec{
		Kind: kind, Execution: "bench-exec", App: "app",
		Machine: machine, NProcs: nprocs, Seed: 1,
	}
	if _, err := gen.WriteExecution(dir, spec); err != nil {
		b.Fatal(err)
	}
	recs, err := gen.ConvertExecution(dir, spec)
	if err != nil {
		b.Fatal(err)
	}
	return recs
}

func newBenchStore(b *testing.B, machine string) *datastore.Store {
	b.Helper()
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		b.Fatal(err)
	}
	m, err := gen.MachineByName(machine)
	if err != nil {
		b.Fatal(err)
	}
	for _, rec := range m.ToPTdf(2) {
		if err := s.LoadRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func loadRecords(b *testing.B, s *datastore.Store, recs []ptdf.Record) int {
	b.Helper()
	results := 0
	for _, rec := range recs {
		if err := s.LoadRecord(rec); err != nil {
			b.Fatal(err)
		}
		if _, ok := rec.(ptdf.PerfResultRec); ok {
			results++
		}
	}
	return results
}

// BenchmarkTable1Load measures loading one execution of each Table 1
// dataset into a fresh store — the §4.2 load-time focus area.
func BenchmarkTable1Load(b *testing.B) {
	cases := []struct {
		name, kind, machine string
		nprocs              int
	}{
		{"IRS", gen.KindIRS, "MCR", 64},
		{"SMG-UV", gen.KindSMGUV, "UV", 64},
		{"SMG-BGL", gen.KindSMGBGL, "BGL", 32},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			recs := prepareExecutionRecords(b, c.kind, c.machine, c.nprocs)
			b.ResetTimer()
			results := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := newBenchStore(b, c.machine)
				b.StartTimer()
				results = loadRecords(b, s, recs)
			}
			b.ReportMetric(float64(results), "results/exec")
			b.ReportMetric(float64(results)*float64(b.N)/b.Elapsed().Seconds(), "results/s")
		})
	}
}

// BenchmarkTable1PTdfGen measures raw tool output → PTdf conversion.
func BenchmarkTable1PTdfGen(b *testing.B) {
	cases := []struct {
		name, kind, machine string
		nprocs              int
	}{
		{"IRS", gen.KindIRS, "MCR", 64},
		{"SMG-UV", gen.KindSMGUV, "UV", 64},
		{"SMG-BGL", gen.KindSMGBGL, "BGL", 32},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			spec := gen.ExecSpec{
				Kind: c.kind, Execution: "bench-exec", App: "app",
				Machine: c.machine, NProcs: c.nprocs, Seed: 1,
			}
			if _, err := gen.WriteExecution(dir, spec); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.ConvertExecution(dir, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig34Store loads a small IRS study used by the Figure 3/4 benchmarks.
func fig34Store(b *testing.B) *datastore.Store {
	b.Helper()
	s := newBenchStore(b, "MCR")
	recs := prepareExecutionRecords(b, gen.KindIRS, "MCR", 32)
	loadRecords(b, s, recs)
	return s
}

// BenchmarkFig3MatchCounts measures the GUI's live match counting as
// families are added to a pr-filter.
func BenchmarkFig3MatchCounts(b *testing.B) {
	s := fig34Store(b)
	machineFam, err := s.ApplyFilter(core.ResourceFilter{
		Name: "/MCRGrid/MCR", Include: core.IncludeDescendants,
	})
	if err != nil {
		b.Fatal(err)
	}
	appFam, err := s.ApplyFilter(core.ResourceFilter{Type: "application"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CountFamilyMatches(machineFam); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CountMatches(core.PRFilter{Families: []core.Family{machineFam, appFam}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4TwoStepQuery measures retrieval plus the two-step Add
// Columns workflow.
func BenchmarkFig4TwoStepQuery(b *testing.B) {
	s := fig34Store(b)
	fam, err := s.ApplyFilter(core.ResourceFilter{Type: "application"})
	if err != nil {
		b.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{fam}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := query.Retrieve(s, prf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.FreeResources(); err != nil {
			b.Fatal(err)
		}
		if err := tbl.AddColumn("build/module/function", false); err != nil {
			b.Fatal(err)
		}
		tbl.SortBy("value", true)
	}
}

// BenchmarkFig5Chart measures building the Figure 5 chart from a loaded
// store.
func BenchmarkFig5Chart(b *testing.B) {
	counts := []int{2, 4, 8, 16, 32, 64}
	s, err := experiments.Fig5Store(counts, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := experiments.Fig5(s, "xdouble", counts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.RenderASCII(50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PTdfParse measures PTdf parse throughput.
func BenchmarkFig6PTdfParse(b *testing.B) {
	var report bytes.Buffer
	if err := irs.Generate(&report, irs.Run{Execution: "e", NProcs: 64, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	rep, err := irs.Parse(&report)
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := ptdf.WriteAll(&doc, rep.ToPTdf("irs", "/MCRGrid/MCR")); err != nil {
		b.Fatal(err)
	}
	data := doc.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ptdf.NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParadynImport measures mapping and loading one Paradyn export
// (§4.3 shape, reduced bins).
func BenchmarkParadynImport(b *testing.B) {
	bundle := paradyn.Synthesize(paradyn.Run{
		Execution: "e", NModules: 10, NFuncs: 20, NProcs: 8,
		NBins: 200, BinWidth: 0.2, NFoci: 3, NanFrac: 0.15, Seed: 1,
	})
	recs, err := bundle.ToPTdf("irs", "irs-pd-bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := datastore.Open(reldb.NewMem())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, rec := range recs {
			if err := s.LoadRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		s.Engine().Close()
		b.StartTimer()
	}
}

// BenchmarkCompareExecutions measures the §6 comparison operators over
// two IRS executions.
func BenchmarkCompareExecutions(b *testing.B) {
	s := newBenchStore(b, "MCR")
	dir := b.TempDir()
	for e := 0; e < 2; e++ {
		spec := gen.ExecSpec{
			Kind: gen.KindIRS, Execution: fmt.Sprintf("cmp-%d", e), App: "irs",
			Machine: "MCR", NProcs: 16, Seed: int64(e + 1),
		}
		sub := filepath.Join(dir, spec.Execution)
		if _, err := gen.WriteExecution(sub, spec); err != nil {
			b.Fatal(err)
		}
		recs, err := gen.ConvertExecution(sub, spec)
		if err != nil {
			b.Fatal(err)
		}
		loadRecords(b, s, recs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := compare.Executions(s, "cmp-0", "cmp-1")
		if err != nil {
			b.Fatal(err)
		}
		if len(cmp.Pairs) == 0 {
			b.Fatal("no aligned pairs")
		}
	}
}

// BenchmarkParadynCompactVsPerBin is the §6 complex-results ablation:
// importing one Paradyn export with one scalar result per histogram bin
// (the prototype's approach) vs one histogram-valued result per
// metric-focus pair (the future-work extension).
func BenchmarkParadynCompactVsPerBin(b *testing.B) {
	bundle := paradyn.Synthesize(paradyn.Run{
		Execution: "e", NModules: 10, NFuncs: 20, NProcs: 8,
		NBins: 500, BinWidth: 0.2, NFoci: 3, NanFrac: 0.15, Seed: 1,
	})
	perBin, err := bundle.ToPTdf("irs", "irs-pd-bench")
	if err != nil {
		b.Fatal(err)
	}
	compact, err := bundle.ToPTdfCompact("irs", "irs-pd-bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		recs []ptdf.Record
	}{{"per-bin", perBin}, {"compact", compact}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(len(c.recs)), "records")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := datastore.Open(reldb.NewMem())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, rec := range c.recs {
					if err := s.LoadRecord(rec); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				s.Engine().Close()
				b.StartTimer()
			}
		})
	}
}

// --- ablations ---

// BenchmarkAncestryClosureVsWalk compares the paper's closure tables
// (resource_has_ancestor/descendant, added "for performance reasons")
// against recomputing ancestry by walking parent links.
func BenchmarkAncestryClosureVsWalk(b *testing.B) {
	s := newBenchStore(b, "MCR")
	// A deep machine subtree.
	m, _ := gen.MachineByName("Frost")
	for _, rec := range m.ToPTdf(16) {
		if err := s.LoadRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
	root := core.ResourceName("/SingleMachineFrost/Frost")
	leaf := core.ResourceName("/SingleMachineFrost/Frost/batch/frost0/p0")
	for _, useClosure := range []bool{true, false} {
		name := "closure"
		if !useClosure {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			s.UseClosureTables = useClosure
			for i := 0; i < b.N; i++ {
				if _, err := s.Descendants(root); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Ancestors(leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	s.UseClosureTables = true
}

// BenchmarkEngine compares loading one IRS execution into a store in
// memory vs one in a directory (asynchronous logs): the same engine over
// its two filesystems.
func BenchmarkEngine(b *testing.B) {
	recs := prepareExecutionRecords(b, gen.KindIRS, "MCR", 32)
	m, _ := gen.MachineByName("MCR")
	machineRecs := m.ToPTdf(2)
	run := func(b *testing.B, mkEngine func(i int) *reldb.DB) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := mkEngine(i)
			s, err := datastore.Open(eng)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range machineRecs {
				if err := s.LoadRecord(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			loadRecords(b, s, recs)
			b.StopTimer()
			eng.Close()
			b.StartTimer()
		}
	}
	b.Run("memory", func(b *testing.B) {
		run(b, func(int) *reldb.DB { return reldb.NewMem() })
	})
	b.Run("file-wal", func(b *testing.B) {
		dir := b.TempDir()
		run(b, func(i int) *reldb.DB {
			fe, err := reldb.OpenFile(filepath.Join(dir, fmt.Sprintf("db%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			return fe
		})
	})
}

// BenchmarkQuerySQLVsDirect compares an aggregate over performance
// results through the SQL layer vs the direct relational API.
func BenchmarkQuerySQLVsDirect(b *testing.B) {
	s := fig34Store(b)
	b.Run("sql", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, err := planner.New(s).Query(context.Background(),
				"SELECT m.name, COUNT(*), AVG(pr.value) FROM performance_result pr "+
					"JOIN metric m ON pr.metric_id = m.id GROUP BY m.name")
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		prTab, _ := s.Engine().Table("performance_result")
		mTab, _ := s.Engine().Table("metric")
		for i := 0; i < b.N; i++ {
			type agg struct {
				n   int
				sum float64
			}
			groups := make(map[int64]*agg)
			prTab.Scan(func(_ int64, row reldb.Row) bool {
				mid := row[2].Int64()
				a := groups[mid]
				if a == nil {
					a = &agg{}
					groups[mid] = a
				}
				a.n++
				a.sum += row[5].Float64()
				return true
			})
			if len(groups) == 0 {
				b.Fatal("no groups")
			}
			for mid := range groups {
				if _, ok := mTab.Get(mid); !ok {
					b.Fatal("missing metric")
				}
			}
		}
	})
}

// prFilterEngineFamilies builds the four families the pr-filter engine
// benchmarks combine: a machine subtree, the applications, a code
// subtree, and the executions.
func prFilterEngineFamilies(b *testing.B, s *datastore.Store) []core.Family {
	b.Helper()
	specs := []core.ResourceFilter{
		{Name: "/MCRGrid/MCR", Include: core.IncludeDescendants},
		{Type: "application"},
		{Name: "/app-code/irs.c", Include: core.IncludeDescendants},
		{Type: "execution"},
	}
	fams := make([]core.Family, 0, len(specs))
	for _, rf := range specs {
		fam, err := s.ApplyFilter(rf)
		if err != nil {
			b.Fatal(err)
		}
		if fam.Size() == 0 {
			b.Fatalf("empty family for %+v", rf)
		}
		fams = append(fams, fam)
	}
	return fams
}

// BenchmarkPRFilterEngine measures the pr-filter fast path on the
// Figure 3/4 store: attribute filters answered from the resource_attribute
// (name, value) index, cold pr-filter evaluation over 1–4 families (the
// match cache is invalidated every iteration), and cached re-evaluation
// (the GUI's repeated live counts between writes).
func BenchmarkPRFilterEngine(b *testing.B) {
	s := fig34Store(b)
	fams := prFilterEngineFamilies(b, s)
	attrFilter := core.ResourceFilter{Attrs: []core.AttrPredicate{
		{Attr: "clock MHz", Cmp: core.CmpGt, Value: "1000"},
	}}
	b.Run("ApplyFilter/attr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fam, err := s.ApplyFilter(attrFilter)
			if err != nil {
				b.Fatal(err)
			}
			if fam.Size() == 0 {
				b.Fatal("no matches")
			}
		}
	})
	for n := 1; n <= len(fams); n++ {
		prf := core.PRFilter{Families: fams[:n]}
		b.Run(fmt.Sprintf("CountMatches/cold-%dfam", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.InvalidateQueryCache()
				if _, err := s.CountMatches(prf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CountMatches/cached-%dfam", n), func(b *testing.B) {
			if _, err := s.CountMatches(prf); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.CountMatches(prf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPRFilterScaling measures pr-filter evaluation as the store
// grows, the scalability concern Table 1 speaks to.
func BenchmarkPRFilterScaling(b *testing.B) {
	for _, execs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("execs-%d", execs), func(b *testing.B) {
			s := newBenchStore(b, "MCR")
			dir := b.TempDir()
			for e := 0; e < execs; e++ {
				spec := gen.ExecSpec{
					Kind: gen.KindIRS, Execution: fmt.Sprintf("scale-%03d", e),
					App: "irs", Machine: "MCR", NProcs: 16, Seed: int64(e + 1),
				}
				sub := filepath.Join(dir, spec.Execution)
				if _, err := gen.WriteExecution(sub, spec); err != nil {
					b.Fatal(err)
				}
				recs, err := gen.ConvertExecution(sub, spec)
				if err != nil {
					b.Fatal(err)
				}
				loadRecords(b, s, recs)
			}
			fam, err := s.ApplyFilter(core.ResourceFilter{
				Name: "/irs-code/irs.c/main", Include: core.IncludeDescendants,
			})
			if err != nil {
				b.Fatal(err)
			}
			prf := core.PRFilter{Families: []core.Family{fam}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := s.CountMatches(prf)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// TestBenchmarkHelpersSmoke keeps the helper path exercised by go test.
func TestBenchmarkHelpersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	out := experiments.FormatTable1(experiments.PaperTable1())
	if !strings.Contains(out, "IRS") {
		t.Error("FormatTable1 broken")
	}
}

// materializeBenchStore loads one SMG-UV execution at 64 processes
// (~10k performance results, the Table 1 heavyweight) and returns the
// store, the full matched ID set, and the pr-filter that selects it.
func materializeBenchStore(b *testing.B) (*datastore.Store, []int64, core.PRFilter) {
	b.Helper()
	s := newBenchStore(b, "UV")
	recs := prepareExecutionRecords(b, gen.KindSMGUV, "UV", 64)
	loadRecords(b, s, recs)
	fam, err := s.ApplyFilter(core.ResourceFilter{Type: "application"})
	if err != nil {
		b.Fatal(err)
	}
	prf := core.PRFilter{Families: []core.Family{fam}}
	ids, err := s.MatchingResultIDs(prf)
	if err != nil {
		b.Fatal(err)
	}
	if len(ids) < 10000 {
		b.Fatalf("only %d results; the materialization benchmark wants >= 10k", len(ids))
	}
	return s, ids, prf
}

// BenchmarkMaterialize measures bulk result materialization on a
// >= 10k-result retrieval — the §3.2/§3.3 read hot path behind
// /v1/results, ptcompare, and reports:
//
//	per-id      the N+1 baseline: one ResultByID per matched ID (4
//	            dictionary Gets plus 2+ PK scans per result, each its
//	            own engine lock round trip)
//	batch-w1    the batch engine, single worker: dictionary prefetch,
//	            grouped link scans, and a shared focus cache — the
//	            algorithmic win without parallelism
//	batch-wN    the batch engine fanned over GOMAXPROCS workers
//	stream      MaterializeStream in default-size chunks (the bounded-
//	            memory variant behind /v1/results?stream=1)
//	query-cold  QueryResults end to end with the match cache invalidated
//	            (pr-filter evaluation + batch materialization)
//	query-warm  QueryResults with a warm match cache — the interactive
//	            "get data" click after the live counts already ran
func BenchmarkMaterialize(b *testing.B) {
	s, ids, prf := materializeBenchStore(b)
	n := len(ids)
	report := func(b *testing.B) {
		b.ReportMetric(float64(n), "results")
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "results/s")
	}
	b.Run("per-id", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, err := s.ResultByID(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
	b.Run("batch-w1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := s.MaterializeResultsOpts(ids, datastore.MaterializeOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("materialized %d of %d", len(out), n)
			}
		}
		report(b)
	})
	b.Run(fmt.Sprintf("batch-wn%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := s.MaterializeResults(ids)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("materialized %d of %d", len(out), n)
			}
		}
		report(b)
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got := 0
			err := s.MaterializeStream(ids, datastore.MaterializeOptions{},
				func(batch []*core.PerformanceResult) error {
					got += len(batch)
					return nil
				})
			if err != nil {
				b.Fatal(err)
			}
			if got != n {
				b.Fatalf("streamed %d of %d", got, n)
			}
		}
		report(b)
	})
	b.Run("query-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.InvalidateQueryCache()
			out, err := s.QueryResults(prf)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("materialized %d of %d", len(out), n)
			}
		}
		report(b)
	})
	b.Run("query-warm", func(b *testing.B) {
		if _, err := s.QueryResults(prf); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := s.QueryResults(prf)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("materialized %d of %d", len(out), n)
			}
		}
		report(b)
	})
}

// BenchmarkDiagnose measures the automated-diagnosis pipeline (§6
// extension) over a 100-execution synthetic fleet with a planted
// compiler=-O0 slowdown: side perf, bottleneck ranking, attribute
// feature extraction, and predicate enumeration/scoring. Serial pins
// one worker; Parallel fans out over GOMAXPROCS.
func BenchmarkDiagnose(b *testing.B) {
	s, fleet, err := experiments.SeedFleetStore(100, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"Serial", 1}, {fmt.Sprintf("Parallel-w%d", runtime.GOMAXPROCS(0)), 0}} {
		b.Run(c.name, func(b *testing.B) {
			spec := diagnose.Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow, Workers: c.workers}
			for i := 0; i < b.N; i++ {
				res, err := diagnose.Run(context.Background(), s, spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Explanations) == 0 ||
					res.Explanations[0].Pred.String() != "compiler = -O0" {
					b.Fatalf("planted predicate not recovered: %+v", res.Explanations)
				}
			}
			b.ReportMetric(float64(len(fleet.Fast)+len(fleet.Slow)), "execs")
		})
	}
}

// prepareBulkFiles writes n generated IRS execution PTdf files to disk,
// one execution per file with distinct names, for the bulk-load
// benchmarks.
func prepareBulkFiles(b *testing.B, n int) []string {
	b.Helper()
	dir := b.TempDir()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		spec := gen.ExecSpec{
			Kind: gen.KindIRS, Execution: fmt.Sprintf("bulk-%02d", i),
			App: "irs", Machine: "MCR", NProcs: 32, Seed: int64(i + 1),
		}
		sub := filepath.Join(dir, spec.Execution)
		if _, err := gen.WriteExecution(sub, spec); err != nil {
			b.Fatal(err)
		}
		recs, err := gen.ConvertExecution(sub, spec)
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, spec.Execution+".ptdf")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		err = ptdf.WriteAll(f, recs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		paths[i] = path
	}
	return paths
}

// BenchmarkBulkLoad measures the batched write path over 8 generated
// execution files on the durable (WAL + fsync) engine, against the
// sequential pre-batch baseline. Three modes:
//
//	per-record  the old write API: one commit per record — every record
//	            pays a writer-lock round trip, a generation bump, and a
//	            WAL flush + fsync of its own
//	seq         the batched path, sequentially: each document stages
//	            outside the lock and commits as one batch — one
//	            generation bump and one WAL fsync per document
//	j4          the bulk pipeline: 4 decode workers feeding the single
//	            committer (adds decode/commit overlap on multi-core
//	            hosts and overlaps decode with the committer's fsync
//	            waits even on one core)
//
// The headline claim is j4 (or seq) vs per-record: batching turns
// thousands of per-record flushes into one per document.
func BenchmarkBulkLoad(b *testing.B) {
	const nFiles = 8
	paths := prepareBulkFiles(b, nFiles)

	newFileStore := func(b *testing.B) (*datastore.Store, func()) {
		b.Helper()
		dir, err := os.MkdirTemp("", "bulkbench")
		if err != nil {
			b.Fatal(err)
		}
		fe, err := reldb.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		fe.SetSync(true)
		s, err := datastore.Open(fe)
		if err != nil {
			b.Fatal(err)
		}
		m, err := gen.MachineByName("MCR")
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range m.ToPTdf(2) {
			if err := s.LoadRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
		return s, func() { fe.Close(); os.RemoveAll(dir) }
	}

	// liveHeap is the heap in use after two collections.
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	run := func(load func(b *testing.B, s *datastore.Store)) func(*testing.B) {
		return func(b *testing.B) {
			var live, sealed, disk, results float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				s, cleanup := newFileStore(b)
				b.StartTimer()
				load(b, s)
				b.StopTimer()
				// Residency: what the loaded store keeps on the heap, per result.
				live += liveHeap() - before
				results += float64(s.Stats().Results)
				// Disk, and residency once every tail is a segment at its
				// widths: the published form's cost.
				if err := s.Engine().CompactSegments(); err != nil {
					b.Fatal(err)
				}
				sealed += liveHeap() - before
				size, err := s.Engine().DiskSize()
				if err != nil {
					b.Fatal(err)
				}
				disk += float64(size)
				cleanup()
				b.StartTimer()
			}
			b.ReportMetric(float64(nFiles)*float64(b.N)/b.Elapsed().Seconds(), "files/s")
			b.ReportMetric(live/results, "live-B/result")
			b.ReportMetric(sealed/results, "sealed-B/result")
			b.ReportMetric(disk/results, "disk-B/result")
		}
	}

	b.Run("per-record", run(func(b *testing.B, s *datastore.Store) {
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			r := ptdf.NewReader(f)
			for {
				rec, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := s.LoadRecord(rec); err != nil {
					b.Fatal(err)
				}
			}
			f.Close()
		}
	}))
	b.Run("seq", run(func(b *testing.B, s *datastore.Store) {
		for _, path := range paths {
			if _, err := s.LoadPTdfFile(path); err != nil {
				b.Fatal(err)
			}
		}
	}))
	b.Run("j4", run(func(b *testing.B, s *datastore.Store) {
		for _, dr := range s.BulkLoadFiles(paths, 4) {
			if dr.Err != nil {
				b.Fatal(dr.Err)
			}
		}
	}))
}

// benchResultRows is the synthetic corpus size for the engine-comparison
// benchmarks: 100k result rows by default, overridable through the
// PTBENCH_RESULT_ROWS environment variable (CI uses a small value).
func benchResultRows(b *testing.B) int {
	b.Helper()
	env := os.Getenv("PTBENCH_RESULT_ROWS")
	if env == "" {
		return 100_000
	}
	n, err := strconv.Atoi(env)
	if err != nil || n <= 0 {
		b.Fatalf("bad PTBENCH_RESULT_ROWS %q", env)
	}
	return n
}

// BenchmarkMaterializeEngines compares the full MaterializeResults fetch
// path across storage shapes on the synthetic corpus (benchResultRows
// result rows, heavily shared foci): a store in memory and one in a
// directory that have compacted nothing, and a directory store compacted
// before timing. The compacted runs take the zone-map-pruned columnar
// scan path while the other two read the same request from the unflushed
// tail. The headline claim is compacted vs uncompacted; mem and
// uncompacted are the same engine and should time the same.
func BenchmarkMaterializeEngines(b *testing.B) {
	rows := benchResultRows(b)
	recs := experiments.SynthResultRecords(rows)
	// Pin collector pacing for the comparison: every engine allocates the
	// same ~10 MB of output per op, and at default GOGC on a small host
	// the mark cost of the seeded store dominates both sides and buries
	// the fetch-path difference being measured.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for _, shape := range []string{"mem", "durable-uncompacted", "durable-compacted"} {
		b.Run(shape, func(b *testing.B) {
			kind := reldb.KindSegment
			if shape == "mem" {
				kind = reldb.KindMem
			}
			e, err := reldb.Open(kind, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			eng := e.DB()
			eng.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
			defer eng.Close()
			s, ids, err := experiments.SeedSynthStore(eng, recs)
			if err != nil {
				b.Fatal(err)
			}
			if len(ids) != rows {
				b.Fatalf("seeded %d of %d results", len(ids), rows)
			}
			compacted := shape == "durable-compacted"
			if compacted {
				if err := eng.CompactSegments(); err != nil {
					b.Fatal(err)
				}
			}
			// One warm-up run fills the name caches, then a forced GC
			// clears seeding garbage so collector debt from the 100k-row
			// load doesn't land inside another engine's timed region.
			if _, err := s.MaterializeResults(ids[:100]); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := s.MaterializeResults(ids)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != rows {
					b.Fatalf("materialized %d of %d", len(out), rows)
				}
			}
			// Stop before the deferred Close: engine shutdown (WAL fsync,
			// compactor drain) is not part of the materialize cost.
			b.StopTimer()
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "results/s")
			if scanned := s.Telemetry().SegmentScans > 0; scanned != compacted {
				b.Fatalf("columnar scan path taken = %v on a %s store", scanned, shape)
			}
		})
	}
}
