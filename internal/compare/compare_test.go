package compare

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// newStore opens an in-memory store holding the PTdf lines, loaded as
// one document.
func newStore(t *testing.T, lines ...string) *datastore.Store {
	t.Helper()
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadPTdfCtx(context.Background(), strings.NewReader(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}
	return s
}

// twoPlatformStore builds IRS runs on Frost and MCR with per-function
// timings, matching the §4.1 cross-platform study shape.
func twoPlatformStore(t *testing.T) *datastore.Store {
	t.Helper()
	result := func(exec, machine, fn string, v float64) string {
		return fmt.Sprintf(`PerfResult %s /irs,%s,/irsbuild/irs.c/%s(primary) IRS "wall time" %g seconds`, exec, machine, fn, v)
	}
	return newStore(t,
		"Resource /irs application",
		"Resource /irsbuild/irs.c/main build/module/function",
		"Resource /irsbuild/irs.c/xdouble build/module/function",
		"Resource /irsbuild/irs.c/radsolve build/module/function",
		"Resource /GF/Frost grid/machine",
		"Resource /GM/MCR grid/machine",
		"Execution irs-frost irs",
		"Execution irs-mcr irs",
		// Frost is ~2x slower on main/xdouble; radsolve only on Frost.
		result("irs-frost", "/GF/Frost", "main", 100),
		result("irs-frost", "/GF/Frost", "xdouble", 40),
		result("irs-frost", "/GF/Frost", "radsolve", 25),
		result("irs-mcr", "/GM/MCR", "main", 50),
		result("irs-mcr", "/GM/MCR", "xdouble", 22),
		// An MCR-only function.
		"Resource /irsbuild/irs.c/mcronly build/module/function",
		result("irs-mcr", "/GM/MCR", "mcronly", 1))
}

func TestExecutionsAlignAcrossMachines(t *testing.T) {
	s := twoPlatformStore(t)
	cmp, err := Executions(s, "irs-frost", "irs-mcr")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Pairs) != 2 {
		t.Fatalf("paired = %d, want 2 (main, xdouble)", len(cmp.Pairs))
	}
	if len(cmp.OnlyA) != 1 || len(cmp.OnlyB) != 1 {
		t.Errorf("onlyA=%d onlyB=%d", len(cmp.OnlyA), len(cmp.OnlyB))
	}
	// main: 100 -> 50.
	var mainPair *Pair
	for i := range cmp.Pairs {
		for _, r := range cmp.Pairs[i].Context {
			if r.BaseName() == "main" {
				mainPair = &cmp.Pairs[i]
			}
		}
	}
	if mainPair == nil {
		t.Fatal("main pair missing")
	}
	if mainPair.A != 100 || mainPair.B != 50 {
		t.Errorf("main pair = %+v", mainPair)
	}
	if mainPair.Speedup() != 2 || mainPair.Ratio() != 0.5 || mainPair.Difference() != -50 {
		t.Errorf("operators: speedup=%v ratio=%v diff=%v",
			mainPair.Speedup(), mainPair.Ratio(), mainPair.Difference())
	}
}

func TestExecutionsUnknownExecution(t *testing.T) {
	s := twoPlatformStore(t)
	if _, err := Executions(s, "nope", "irs-mcr"); err == nil {
		t.Error("unknown execution accepted")
	}
	if _, err := Executions(s, "irs-frost", "nope"); err == nil {
		t.Error("unknown execution accepted")
	}
}

func TestRegressionsAndImprovements(t *testing.T) {
	s := twoPlatformStore(t)
	// Compare in the slow direction: MCR -> Frost regresses.
	cmp, err := Executions(s, "irs-mcr", "irs-frost")
	if err != nil {
		t.Fatal(err)
	}
	regs := cmp.Regressions(0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %d", len(regs))
	}
	// Worst first: main doubled (100%).
	if regs[0].Percent < regs[1].Percent {
		t.Error("regressions not sorted worst-first")
	}
	if math.Abs(regs[0].Percent-100) > 1e-9 {
		t.Errorf("worst regression = %v%%", regs[0].Percent)
	}
	// The reverse comparison reports improvements.
	cmp2, _ := Executions(s, "irs-frost", "irs-mcr")
	imps := cmp2.Improvements(0.10)
	if len(imps) != 2 {
		t.Errorf("improvements = %d", len(imps))
	}
	if len(cmp2.Regressions(0.10)) != 0 {
		t.Error("no regressions expected in the fast direction")
	}
}

func TestSummarize(t *testing.T) {
	s := twoPlatformStore(t)
	cmp, _ := Executions(s, "irs-frost", "irs-mcr")
	sum := cmp.Summarize()
	if sum.Paired != 2 || sum.OnlyA != 1 || sum.OnlyB != 1 {
		t.Errorf("summary = %+v", sum)
	}
	// Geomean of {0.5, 0.55} is sqrt(0.275).
	want := math.Sqrt(0.5 * (22.0 / 40.0))
	if math.Abs(sum.GeoMeanRatio-want) > 1e-9 {
		t.Errorf("geomean = %v, want %v", sum.GeoMeanRatio, want)
	}
	if sum.MeanDiff >= 0 {
		t.Errorf("mean diff = %v, want negative (B faster)", sum.MeanDiff)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	c := &Comparison{}
	sum := c.Summarize()
	if sum.Paired != 0 || !math.IsNaN(sum.GeoMeanRatio) {
		t.Errorf("empty summary = %+v", sum)
	}
}

func TestFilterMetric(t *testing.T) {
	s := twoPlatformStore(t)
	cmp, _ := Executions(s, "irs-frost", "irs-mcr")
	// radsolve ran on Frost only and mcronly on MCR only: each side keeps
	// its unpaired wall time result.
	if got := cmp.FilterMetric("wall time"); len(got.Pairs) != 2 || len(got.OnlyA) != 1 || len(got.OnlyB) != 1 {
		t.Errorf("wall time: %d pairs, %d only in A, %d only in B; want 2, 1, 1", len(got.Pairs), len(got.OnlyA), len(got.OnlyB))
	}
	if got := cmp.FilterMetric("nosuch"); len(got.Pairs) != 0 || len(got.OnlyA) != 0 || len(got.OnlyB) != 0 {
		t.Errorf("nosuch: %d pairs, %d only in A, %d only in B", len(got.Pairs), len(got.OnlyA), len(got.OnlyB))
	}
}

func TestDiagnoseBottlenecks(t *testing.T) {
	s := twoPlatformStore(t)
	// MCR -> Frost: everything slows down; main contributes most.
	cmp, err := Executions(s, "irs-mcr", "irs-frost")
	if err != nil {
		t.Fatal(err)
	}
	findings := Rank(cmp.Pairs, "", 0)
	if len(findings) != 2 {
		t.Fatalf("findings = %d", len(findings))
	}
	// main: 50 -> 100 (delta 50); xdouble: 22 -> 40 (delta 18).
	if findings[0].Delta != 50 || findings[1].Delta != 18 {
		t.Errorf("deltas = %v, %v", findings[0].Delta, findings[1].Delta)
	}
	wantShare := 50.0 / 68.0
	if diff := findings[0].Contribution - wantShare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("contribution = %v, want %v", findings[0].Contribution, wantShare)
	}
	// topN truncates.
	if got := Rank(cmp.Pairs, "", 1); len(got) != 1 || got[0].Delta != 50 {
		t.Errorf("topN = %+v", got)
	}
	// The fast direction has no bottlenecks.
	fast, _ := Executions(s, "irs-frost", "irs-mcr")
	if got := Rank(fast.Pairs, "", 0); len(got) != 0 {
		t.Errorf("fast direction findings = %d", len(got))
	}
	// Metric filter.
	if got := Rank(cmp.Pairs, "nosuch", 0); len(got) != 0 {
		t.Errorf("bogus metric findings = %d", len(got))
	}
	// A NaN delta is no slowdown, and leaves the others' shares whole.
	nan := []Pair{{A: 1, B: 3, Units: "seconds"}, {A: 1, B: math.NaN(), Units: "seconds"}, {A: 1, B: 2, Units: "seconds"}}
	if got := Rank(nan, "", 0); len(got) != 2 || got[0].Contribution != 2.0/3 || got[1].Contribution != 1.0/3 {
		t.Errorf("with a NaN pair: %+v, want deltas 2 and 1 sharing the slowdown", got)
	}
}

func TestPairEdgeCaseOperators(t *testing.T) {
	p := Pair{A: 0, B: 5}
	if !math.IsNaN(p.Ratio()) {
		t.Error("zero A should yield NaN ratio")
	}
	q := Pair{A: 5, B: 0}
	if !math.IsNaN(q.Speedup()) {
		t.Error("zero B should yield NaN speedup")
	}
}

func TestDuplicateKeyValuesAveraged(t *testing.T) {
	s := newStore(t,
		"Resource /app application",
		"Execution a app",
		"Execution b app",
		`PerfResult a /app(primary) "" m 10 ""`,
		`PerfResult a /app(primary) "" m 20 ""`,
		`PerfResult b /app(primary) "" m 30 ""`)
	cmp, err := Executions(s, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Pairs) != 1 || cmp.Pairs[0].A != 15 || cmp.Pairs[0].B != 30 {
		t.Errorf("pairs = %+v", cmp.Pairs)
	}
}

// TestSetsMeanOverSide: with several executions a side, a pair's value is
// the mean of the side's results in its cell, and each execution's perf
// and each side's stand beside it.
func TestSetsMeanOverSide(t *testing.T) {
	doc := []string{"Resource /app application"}
	for _, e := range []struct {
		exec string
		vals []float64
	}{{"a1", []float64{10, 40}}, {"a2", []float64{20}}, {"b", []float64{30}}, {"c", nil}} {
		doc = append(doc, "Execution "+e.exec+" app")
		for _, v := range e.vals {
			doc = append(doc, fmt.Sprintf(`PerfResult %s /app(primary) "" m %g seconds`, e.exec, v))
		}
	}
	s := newStore(t, doc...)
	cmp, err := Sets(context.Background(), s, []string{"a1", "a2"}, []string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Pairs) != 1 || cmp.Pairs[0].A != 70.0/3 || cmp.Pairs[0].B != 30 || len(cmp.OnlyA)+len(cmp.OnlyB) != 0 {
		t.Fatalf("pairs %+v, unpaired %v / %v; want one pair 70/3 vs 30", cmp.Pairs, cmp.OnlyA, cmp.OnlyB)
	}
	if perf, ok := cmp.Perf(0, ""); !ok || perf != 25 {
		t.Errorf("a1 perf = %v, %t; want 25", perf, ok)
	}
	if _, ok := cmp.Perf(3, ""); ok {
		t.Error("c, without results, has a perf")
	}
	if a, b := cmp.SidePerf(""); a != 22.5 || b != 30 {
		t.Errorf("side perf = %v / %v, want 22.5 / 30 (c has none)", a, b)
	}
}
