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
// syntax). With -remote the diagnosis runs on a ptserved instance via
// POST /v1/diagnose; both modes print the same report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/diagnose"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	var execsA, execsB, famsA, famsB stringList
	flag.Var(&execsA, "a", "fast-side execution (repeatable)")
	flag.Var(&execsB, "b", "slow-side execution (repeatable)")
	flag.Var(&famsA, "afamily", "fast-side resource-filter spec (repeatable)")
	flag.Var(&famsB, "bfamily", "slow-side resource-filter spec (repeatable)")
	metric := flag.String("metric", "", "restrict the perf measure to one metric (default: time-like results)")
	top := flag.Int("top", diagnose.DefaultTop, "explanations/bottlenecks/contexts to print")
	minCoverage := flag.Float64("min-coverage", diagnose.DefaultMinCoverage,
		"skip attributes defined on less than this fraction of the selected executions")
	explain := flag.Bool("explain", false, "print the predicate search trace")
	workers := flag.Int("j", 0, "local diagnosis parallelism (0 = GOMAXPROCS)")
	attrs := flag.Bool("attrs", false, "list attribute keys and their value domains instead of diagnosing")
	attrPrefix := flag.String("attr-prefix", "", "with -attrs: only keys with this name prefix")
	flag.Parse()

	if (*dbDir == "") == (*remote == "") {
		fmt.Fprintln(os.Stderr, "ptdiagnose: exactly one of -db or -remote is required")
		flag.Usage()
		os.Exit(2)
	}
	if *attrs {
		runAttrs(*dbDir, *remote, *attrPrefix)
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

	var resp server.DiagnoseResponse
	if *remote != "" {
		c := client.New(*remote)
		var err error
		resp, err = c.Diagnose(context.Background(), req)
		if err != nil {
			fatalExec(err, append(execsA, execsB...))
		}
	} else {
		spec, err := req.Spec()
		if err != nil {
			fatal(err)
		}
		spec.Workers = *workers
		fe, err := reldb.OpenFile(*dbDir)
		if err != nil {
			fatal(err)
		}
		defer fe.Close()
		store, err := datastore.Open(fe)
		if err != nil {
			fatal(err)
		}
		res, err := diagnose.Run(context.Background(), store, spec)
		if err != nil {
			fatalExec(err, append(execsA, execsB...))
		}
		resp = server.NewDiagnoseResponse(res)
	}
	printDiagnosis(resp, *top)
}

// runAttrs lists attribute keys with their value domains.
func runAttrs(dbDir, remote, prefix string) {
	var keys []server.AttributeKey
	if remote != "" {
		resp, err := client.New(remote).Attributes(context.Background(), prefix)
		if err != nil {
			fatal(err)
		}
		keys = resp.Keys
	} else {
		fe, err := reldb.OpenFile(dbDir)
		if err != nil {
			fatal(err)
		}
		defer fe.Close()
		store, err := datastore.Open(fe)
		if err != nil {
			fatal(err)
		}
		infos, err := store.AttributeKeys(prefix)
		if err != nil {
			fatal(err)
		}
		for _, k := range infos {
			ak := server.AttributeKey{
				Name: k.Name, Resources: k.Resources, Distinct: k.Distinct,
				Numeric: k.Numeric, Values: k.Values,
			}
			if k.Numeric {
				min, max := k.Min, k.Max
				ak.Min, ak.Max = &min, &max
			}
			keys = append(keys, ak)
		}
	}
	fmt.Printf("%-28s %10s %9s  %s\n", "attribute", "resources", "distinct", "domain")
	for _, k := range keys {
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

// fatalExec maps a missing execution to the one-line hint; anything else
// falls through to fatal.
func fatalExec(err error, execs []string) {
	if errors.Is(err, datastore.ErrNotFound) {
		for _, e := range execs {
			if strings.Contains(err.Error(), strconv.Quote(e)) {
				fmt.Fprintf(os.Stderr,
					"ptdiagnose: execution %q not found (try 'ptquery -report executions' to list executions)\n", e)
				os.Exit(1)
			}
		}
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptdiagnose:", err)
	os.Exit(1)
}
