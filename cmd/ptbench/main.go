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
package main

import (
	"flag"
	"fmt"
	"os"

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
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptbench:", err)
	os.Exit(1)
}
