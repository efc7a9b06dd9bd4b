// Command ptbenchcheck is the CI bench-regression smoke: it compares
// the speedup ratios in freshly generated `ptbench -benchjson`
// artifacts against checked-in baselines and fails when a gated ratio
// regressed by more than -max-regress (default 30%).
//
// Ratios, not absolute ns/op, are compared so the check survives
// hardware differences between the machine that produced the baseline
// and the CI runner. Two artifact files carry ratios:
//
//   - BENCH_sql.json: planned-vs-naive per engine (naive / planned)
//   - BENCH_scan.json: the 1->4 worker pair of the segment-kernel scan
//
// Only ratios whose baseline is at least -min-ratio (default 10x) are
// gated: those are the order-of-magnitude claims the benchmarks exist
// to protect (today, planned-vs-naive over compacted segments, in memory
// and in a directory). Smaller ratios (worker scaling on single-core
// runners) are reported but not gated — at that scale run-to-run
// scheduling noise exceeds any real signal.
// Gated ratios are clipped to -cap-ratio (default 15x) before
// comparison: past that point the fast side of the ratio is a handful
// of microseconds and timer noise swings the raw quotient 2x between
// runs, so the gate asserts "still at least an order of magnitude",
// not "still exactly 200x".
//
// Usage:
//
//	ptbenchcheck -baseline bench/baseline -fresh bench-fresh
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"perftrack/internal/experiments"
)

func main() {
	baseline := flag.String("baseline", "bench/baseline", "directory holding the checked-in BENCH_*.json baselines")
	fresh := flag.String("fresh", ".", "directory holding the freshly generated BENCH_*.json artifacts")
	maxRegress := flag.Float64("max-regress", 0.30, "maximum allowed fractional regression of a gated ratio")
	minRatio := flag.Float64("min-ratio", 10.0, "baseline speedup below which a ratio is reported but not gated")
	capRatio := flag.Float64("cap-ratio", 15.0, "clip gated ratios here before comparing, absorbing timer noise on very large speedups")
	flag.Parse()

	base, err := loadRatios(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := loadRatios(*fresh)
	if err != nil {
		fatal(err)
	}

	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	failed := false
	fmt.Printf("%-24s %10s %10s %8s  %s\n", "ratio", "baseline", "fresh", "change", "status")
	for _, k := range keys {
		b := base[k]
		f, ok := cur[k]
		if !ok {
			fmt.Printf("%-24s %9.1fx %10s %8s  FAIL (missing from fresh artifacts)\n", k, b, "-", "-")
			failed = true
			continue
		}
		change := (f - b) / b
		status := "ok"
		switch {
		case b < *minRatio:
			status = "ok (ungated: baseline below min-ratio)"
		case min(f, *capRatio) < min(b, *capRatio)*(1-*maxRegress):
			status = fmt.Sprintf("FAIL (regressed beyond %.0f%%)", *maxRegress*100)
			failed = true
		}
		fmt.Printf("%-24s %9.1fx %9.1fx %+7.1f%%  %s\n", k, b, f, change*100, status)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			fmt.Printf("%-24s %10s %9.1fx %8s  ok (no baseline yet)\n", k, "-", cur[k], "-")
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "ptbenchcheck: speedup regression detected")
		os.Exit(1)
	}
	fmt.Println("ptbenchcheck: all gated ratios within bounds")
}

// loadRatios derives every named speedup ratio from one artifact
// directory's BENCH_sql.json and BENCH_scan.json.
func loadRatios(dir string) (map[string]float64, error) {
	sql, err := loadBench(filepath.Join(dir, "BENCH_sql.json"))
	if err != nil {
		return nil, err
	}
	scan, err := loadBench(filepath.Join(dir, "BENCH_scan.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	byOp := func(rows []experiments.BenchResult, op, engine string) float64 {
		for _, r := range rows {
			if r.Op == op && (engine == "" || r.Engine == engine) {
				return r.NsPerOp
			}
		}
		return 0
	}
	for _, r := range sql {
		if r.Op != "sql-planned" {
			continue
		}
		if naive := byOp(sql, "sql-naive", r.Engine); naive > 0 && r.NsPerOp > 0 {
			out["sql-planned/"+r.Engine] = naive / r.NsPerOp
		}
	}
	if w1, w4 := byOp(scan, "scan-vectorized-w1", ""), byOp(scan, "scan-vectorized-w4", ""); w1 > 0 && w4 > 0 {
		out["scan-worker-scaling"] = w1 / w4
	}
	return out, nil
}

func loadBench(path string) ([]experiments.BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []experiments.BenchResult
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptbenchcheck:", err)
	os.Exit(1)
}
