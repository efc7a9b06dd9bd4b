// Command ptbench regenerates the paper's evaluation artifacts: Table 1's
// dataset statistics, the Figure 5 load-balance chart, the Figure 9 PTdf
// excerpt, the live database schema (Figure 1), the base resource types
// (Figure 2), and the Paradyn hierarchy and mapping (Figures 10–11).
//
// Usage:
//
//	ptbench -table1 [-full]     regenerate Table 1 (quick scale by default)
//	ptbench -fig5 [-svg f.svg]  regenerate Figure 5
//	ptbench -fig9               regenerate Figure 9
//	ptbench -schema             print the live Figure 1 schema
//	ptbench -basetypes          print the Figure 2 base types
//	ptbench -fig10 -fig11       print the Paradyn hierarchy and mapping
//	ptbench -benchjson [-bench-rows N] [-bench-execs N] [-bench-out DIR]
//	                            measure materialize, bulk-load, and
//	                            planned-vs-naive SQL per storage engine,
//	                            segment-kernel scans at 1, 4 and all workers,
//	                            plus serial/parallel diagnosis, writing
//	                            BENCH_materialize.json, BENCH_bulkload.json,
//	                            BENCH_sql.json, BENCH_scan.json, and
//	                            BENCH_diagnose.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"perftrack/internal/datastore"
	"perftrack/internal/experiments"
	"perftrack/internal/reldb"
)

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	full := flag.Bool("full", false, "use the paper's execution counts (62/35/60) for -table1")
	fig5 := flag.Bool("fig5", false, "regenerate Figure 5")
	svgOut := flag.String("svg", "", "also write the Figure 5 chart as SVG to this file")
	function := flag.String("function", "xdouble", "function charted by -fig5")
	fig9 := flag.Bool("fig9", false, "regenerate the Figure 9 PTdf excerpt")
	modelDemo := flag.Bool("model", false, "fit a scaling model to Fig5-style runs and compare against measurement (§6)")
	schema := flag.Bool("schema", false, "print the live database schema (Figure 1)")
	baseTypes := flag.Bool("basetypes", false, "print the base resource types (Figure 2)")
	fig10 := flag.Bool("fig10", false, "print Paradyn's resource hierarchy (Figure 10)")
	fig11 := flag.Bool("fig11", false, "print the Paradyn type mapping (Figure 11)")
	benchJSON := flag.Bool("benchjson", false, "benchmark each storage engine and write BENCH_*.json artifacts")
	benchRows := flag.Int("bench-rows", 100_000, "synthetic result rows for -benchjson")
	benchIters := flag.Int("bench-iters", 3, "timed materialize iterations per engine for -benchjson")
	benchExecs := flag.Int("bench-execs", 100, "synthetic fleet executions for the -benchjson diagnosis rows")
	benchOut := flag.String("bench-out", ".", "directory for the -benchjson artifacts")
	flag.Parse()

	any := false
	if *schema || *baseTypes {
		any = true
		s, err := datastore.Open(reldb.NewMem())
		if err != nil {
			fatal(err)
		}
		if *schema {
			fmt.Println("PerfTrack database schema (Figure 1)")
			fmt.Println()
			fmt.Println(s.SchemaDDL())
		}
		if *baseTypes {
			fmt.Println(experiments.Fig2BaseTypes(s))
		}
	}
	if *table1 {
		any = true
		work, err := os.MkdirTemp("", "perftrack-table1-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(work)
		cfg := experiments.QuickTable1Config(work)
		if *full {
			cfg = experiments.DefaultTable1Config(work)
		}
		fmt.Fprintf(os.Stderr, "ptbench: generating datasets (%d/%d/%d executions)...\n",
			cfg.IRSExecs, cfg.SMGUVExecs, cfg.SMGBGLExecs)
		rows, err := experiments.Table1(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.FormatTable1(rows))
	}
	if *fig5 {
		any = true
		counts := []int{2, 4, 8, 16, 32, 64}
		s, err := experiments.Fig5Store(counts, 1)
		if err != nil {
			fatal(err)
		}
		c, err := experiments.Fig5(s, *function, counts)
		if err != nil {
			fatal(err)
		}
		out, err := c.RenderASCII(50)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		if *svgOut != "" {
			svg, err := c.RenderSVG(720, 400)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "ptbench: wrote %s\n", *svgOut)
		}
	}
	if *modelDemo {
		any = true
		counts := []int{2, 4, 8, 16, 32, 64, 128}
		s, err := experiments.Fig5Store(counts[:6], 1)
		if err != nil {
			fatal(err)
		}
		out, err := experiments.ModelDemo(s, *function, counts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if *fig9 {
		any = true
		work, err := os.MkdirTemp("", "perftrack-fig9-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(work)
		out, err := experiments.Fig9Sample(work, 40)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if *fig10 {
		any = true
		fmt.Println(experiments.Fig10Hierarchy())
	}
	if *fig11 {
		any = true
		fmt.Println(experiments.Fig11Mapping())
	}
	if *benchJSON {
		any = true
		if err := runBenchJSON(*benchRows, *benchIters, *benchExecs, *benchOut); err != nil {
			fatal(err)
		}
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// runBenchJSON measures MaterializeResults and bulk load on every
// storage engine over the synthetic corpus, planned-vs-naive SQL,
// segment-kernel scans at 1, 4 and all workers, plus serial-vs-parallel
// fleet diagnosis, and writes one JSON artifact per operation
// (BENCH_materialize.json, BENCH_bulkload.json, BENCH_sql.json,
// BENCH_scan.json, BENCH_diagnose.json).
func runBenchJSON(rows, iters, execs int, outDir string) error {
	engines := []string{reldb.KindMem, reldb.KindSegment}
	work, err := os.MkdirTemp("", "perftrack-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	var mat, bulk, sql []experiments.BenchResult
	for _, kind := range engines {
		fmt.Fprintf(os.Stderr, "ptbench: materialize on %s (%d rows)...\n", kind, rows)
		m, err := experiments.MaterializeBenchmark(kind, filepath.Join(work, "mat-"+kind), rows, iters)
		if err != nil {
			return fmt.Errorf("materialize on %s: %w", kind, err)
		}
		mat = append(mat, m)
		fmt.Fprintf(os.Stderr, "ptbench: bulk load on %s (%d rows)...\n", kind, rows)
		l, err := experiments.BulkLoadBenchmark(kind, filepath.Join(work, "bulk-"+kind), rows)
		if err != nil {
			return fmt.Errorf("bulk load on %s: %w", kind, err)
		}
		bulk = append(bulk, l)
		fmt.Fprintf(os.Stderr, "ptbench: sql planned vs naive on %s (%d rows)...\n", kind, rows)
		q, err := experiments.SQLBenchmark(kind, filepath.Join(work, "sql-"+kind), rows, iters)
		if err != nil {
			return fmt.Errorf("sql on %s: %w", kind, err)
		}
		sql = append(sql, q...)
	}
	if err := writeBenchArtifact(filepath.Join(outDir, "BENCH_materialize.json"), mat); err != nil {
		return err
	}
	if err := writeBenchArtifact(filepath.Join(outDir, "BENCH_bulkload.json"), bulk); err != nil {
		return err
	}
	if err := writeBenchArtifact(filepath.Join(outDir, "BENCH_sql.json"), sql); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: segment-kernel scan worker scaling (%d rows)...\n", rows)
	scan, err := experiments.ScanBenchmark(filepath.Join(work, "scan-segment"), rows, iters)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if err := writeBenchArtifact(filepath.Join(outDir, "BENCH_scan.json"), scan); err != nil {
		return err
	}
	var diag []experiments.BenchResult
	for _, workers := range []int{1, 0} {
		mode := "serial"
		if workers == 0 {
			mode = "parallel"
		}
		fmt.Fprintf(os.Stderr, "ptbench: diagnose %s (%d executions)...\n", mode, execs)
		d, err := experiments.DiagnoseBenchmark(execs, iters, workers)
		if err != nil {
			return fmt.Errorf("diagnose %s: %w", mode, err)
		}
		diag = append(diag, d)
	}
	if err := writeBenchArtifact(filepath.Join(outDir, "BENCH_diagnose.json"), diag); err != nil {
		return err
	}
	for _, r := range mat {
		fmt.Printf("materialize %-8s %8d rows  %12.0f ns/op  %8.1f MB/s\n",
			r.Engine, r.Rows, r.NsPerOp, r.MBPerSec)
	}
	for _, r := range bulk {
		fmt.Printf("bulkload    %-8s %8d rows  %12.0f ns/op  %8.1f MB/s\n",
			r.Engine, r.Rows, r.NsPerOp, r.MBPerSec)
	}
	for i := 0; i+1 < len(sql); i += 2 {
		speedup := 0.0
		if sql[i].NsPerOp > 0 {
			speedup = sql[i+1].NsPerOp / sql[i].NsPerOp
		}
		fmt.Printf("sql         %-8s %8d rows  %12.0f ns/op planned  %12.0f ns/op naive  %5.1fx\n",
			sql[i].Engine, sql[i].Rows, sql[i].NsPerOp, sql[i+1].NsPerOp, speedup)
	}
	scanNs := make(map[string]float64, len(scan))
	for _, r := range scan {
		fmt.Printf("scan        %-18s %8d rows  %12.0f ns/op\n", r.Op, r.Rows, r.NsPerOp)
		scanNs[r.Op] = r.NsPerOp
	}
	if w4 := scanNs["scan-vectorized-w4"]; w4 > 0 {
		fmt.Printf("scan        1 -> 4 worker scaling:            %5.1fx\n", scanNs["scan-vectorized-w1"]/w4)
	}
	for _, r := range diag {
		fmt.Printf("diagnose    %-8s %8d execs %12.0f ns/op\n",
			r.Engine, r.Rows, r.NsPerOp)
	}
	return nil
}

func writeBenchArtifact(path string, results []experiments.BenchResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptbench: wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptbench:", err)
	os.Exit(1)
}
