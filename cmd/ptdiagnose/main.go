// Command ptdiagnose answers "why is execution (or set) B slower than
// (set) A?" against a PerfTrack data store: it aligns results, ranks
// bottleneck metrics, and searches the resource-attribute space for the
// predicates that best discriminate the slow side from the fast side.
//
// Usage:
//
//	ptdiagnose -db DIR -a execA -b execB [-metric NAME] [-top N]
//	           [-explain] [-min-coverage 0.25]
//	ptdiagnose -db DIR -a e1 -a e2 -b e3 -b e4        (set vs set)
//	ptdiagnose -db DIR -afamily 'attr=compiler=-O2' -bfamily 'attr=compiler=-O0'
//	ptdiagnose -remote http://host:7075 [...]          (server-side)
//	ptdiagnose -db DIR -attrs [-attr-prefix P]         (list attribute keys)
//
// Each side is exactly one of: a single -a/-b execution, repeated -a/-b
// executions, or repeated -afamily/-bfamily pr-filter specs (ptquery
// syntax). Both modes run the diagnosis through POST /v1/diagnose: with
// -remote on a ptserved instance, with -db on the store served in process.
// The server scores candidates on GOMAXPROCS workers; set that variable
// to cap a local run.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"perftrack/internal/cli"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	var execsA, execsB, famsA, famsB cli.StringList
	flag.Var(&execsA, "a", "fast-side execution (repeatable)")
	flag.Var(&execsB, "b", "slow-side execution (repeatable)")
	flag.Var(&famsA, "afamily", "fast-side resource-filter spec (repeatable)")
	flag.Var(&famsB, "bfamily", "slow-side resource-filter spec (repeatable)")
	metric := flag.String("metric", "", "restrict the perf measure to one metric (default: time-like results)")
	top := flag.Int("top", 10, "explanations/bottlenecks/contexts to print")
	minCoverage := flag.Float64("min-coverage", 0.25,
		"skip attributes defined on less than this fraction of the selected executions")
	explain := flag.Bool("explain", false, "print the predicate search trace")
	attrs := flag.Bool("attrs", false, "list attribute keys and their value domains instead of diagnosing")
	attrPrefix := flag.String("attr-prefix", "", "with -attrs: only keys with this name prefix")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		cli.Usage("exactly one of -db or -remote is required")
	}
	t := cli.MustOpen(*dbDir, *remote)
	defer t.Close()
	if *attrs {
		printAttrs(t, *attrPrefix)
		return
	}

	req := server.DiagnoseRequest{
		Metric: *metric, Top: *top, MinCoverage: *minCoverage, Explain: *explain,
	}
	// One execution means the 1v1 mode (with context alignment); several
	// mean an explicit set.
	switch len(execsA) {
	case 0:
	case 1:
		req.ExecA = execsA[0]
	default:
		req.ExecsA = execsA
	}
	switch len(execsB) {
	case 0:
	case 1:
		req.ExecB = execsB[0]
	default:
		req.ExecsB = execsB
	}
	req.FamiliesA = famsA
	req.FamiliesB = famsB

	resp, err := t.Diagnose(context.Background(), req)
	if err != nil {
		cli.FatalExec(err, append(execsA, execsB...)...)
	}
	printDiagnosis(resp, *top)
}

// printAttrs lists attribute keys with their value domains.
func printAttrs(t *cli.Target, prefix string) {
	resp, err := t.Attributes(context.Background(), prefix)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("%-28s %10s %9s  %s\n", "attribute", "resources", "distinct", "domain")
	for _, k := range resp.Keys {
		domain := strings.Join(k.Values, ", ")
		if k.Numeric && k.Min != nil && k.Max != nil {
			domain = fmt.Sprintf("numeric [%g .. %g]", *k.Min, *k.Max)
		}
		if len(domain) > 60 {
			domain = domain[:57] + "..."
		}
		fmt.Printf("%-28s %10d %9d  %s\n", k.Name, k.Resources, k.Distinct, domain)
	}
}

// fv renders a possibly-null wire float.
func fv(p *float64, format string) string {
	if p == nil {
		return "n/a"
	}
	return fmt.Sprintf(format, *p)
}

func printDiagnosis(resp server.DiagnoseResponse, top int) {
	fmt.Printf("diagnosing %s (A, fast) vs %s (B, slow)\n",
		sideLabel(resp.SideA), sideLabel(resp.SideB))
	measure := "time-like results"
	if resp.Metric != "" {
		measure = fmt.Sprintf("metric %q", resp.Metric)
	}
	fmt.Printf("perf (%s): A %s   B %s   delta %s   ratio B/A %s\n\n",
		measure, fv(resp.PerfA, "%.4g"), fv(resp.PerfB, "%.4g"),
		fv(resp.Delta, "%+.4g"), fv(resp.Ratio, "%.3f"))

	if len(resp.Explanations) == 0 {
		fmt.Printf("no discriminating predicates found (%d attribute keys, %d candidates scored)\n",
			resp.Keys, resp.Candidates)
	} else {
		fmt.Printf("explanations (%d keys, %d candidates scored), best first:\n", resp.Keys, resp.Candidates)
		fmt.Printf("  %-34s %7s %7s %5s  %-13s %-13s %s\n",
			"predicate", "score", "effect", "cov", "slow matches", "fast matches", "perf hold vs not")
		for i, ex := range resp.Explanations {
			if i >= top && top > 0 {
				fmt.Printf("  ... %d more\n", len(resp.Explanations)-top)
				break
			}
			fmt.Printf("  %-34s %7.3f %7.3f %5.2f  %5d /%5d  %5d /%5d  %s vs %s (ratio %s)\n",
				ex.Predicate, ex.Score, ex.Effect, ex.Coverage,
				ex.MatchB, ex.DefinedB, ex.MatchA, ex.DefinedA,
				fv(ex.MeanHold, "%.4g"), fv(ex.MeanNot, "%.4g"), fv(ex.Ratio, "%.3f"))
		}
	}

	if len(resp.Bottlenecks) > 0 {
		fmt.Printf("\nbottleneck metrics (B slower than A), worst first:\n")
		fmt.Printf("  %-28s %12s %12s %12s %7s\n", "metric", "mean A", "mean B", "delta", "share")
		for _, b := range resp.Bottlenecks {
			fmt.Printf("  %-28s %12.4f %12.4f %+12.4f %6.1f%%\n",
				b.Metric, b.MeanA, b.MeanB, b.Delta, b.Contribution*100)
		}
	}

	if len(resp.Contexts) > 0 {
		fmt.Printf("\naligned contexts (%d pairs), largest slowdown first:\n", resp.AlignedPairs)
		fmt.Printf("  %-40s %-24s %12s %7s\n", "context", "metric", "delta", "share")
		for _, cf := range resp.Contexts {
			fmt.Printf("  %-40s %-24s %+12.4f %6.1f%%\n",
				strings.Join(cf.Context, ","), cf.Metric, cf.Delta, cf.Contribution*100)
		}
	}

	if len(resp.Trace) > 0 {
		fmt.Printf("\nsearch trace:\n")
		for _, line := range resp.Trace {
			fmt.Printf("  %s\n", line)
		}
	}
}

func sideLabel(execs []string) string {
	if len(execs) == 1 {
		return execs[0]
	}
	return fmt.Sprintf("%d executions", len(execs))
}
