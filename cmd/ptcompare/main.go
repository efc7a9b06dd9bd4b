// Command ptcompare runs the comparison operators of §6 between two
// executions in a PerfTrack data store: aligned pairs with
// difference/ratio/speedup, regression and improvement lists, bottleneck
// diagnosis, and a summary.
//
// Usage:
//
//	ptcompare -db DIR -a execA -b execB [-metric NAME] [-threshold 0.10]
//	          [-diagnose] [-top N]
//	ptcompare -remote http://host:7075 -a execA -b execB [...]
//
// With -remote the comparison runs server-side (GET /v1/compare on a
// ptserved instance); both print the same wire form through one printer.
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
	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	execA := flag.String("a", "", "baseline execution (required)")
	execB := flag.String("b", "", "comparison execution (required)")
	metric := flag.String("metric", "", "restrict to one metric")
	threshold := flag.Float64("threshold", 0.10, "regression/improvement threshold (fraction)")
	diagnose := flag.Bool("diagnose", false, "rank bottlenecks by contribution to total slowdown")
	top := flag.Int("top", 10, "rows to print per section")
	flag.Parse()
	if (*dbDir == "") == (*remote == "") || *execA == "" || *execB == "" {
		fmt.Fprintln(os.Stderr, "ptcompare: exactly one of -db or -remote, plus -a and -b, are required")
		flag.Usage()
		os.Exit(2)
	}
	var resp server.CompareResponse
	if *remote != "" {
		var err error
		resp, err = client.New(*remote).Compare(context.Background(), *execA, *execB, client.CompareOptions{
			Metric: *metric, Threshold: *threshold, Top: *top,
		})
		if err != nil {
			fatalExec(err, *execA, *execB)
		}
	} else {
		fe, err := reldb.OpenFile(*dbDir)
		if err != nil {
			fatal(err)
		}
		defer fe.Close()
		store, err := datastore.Open(fe)
		if err != nil {
			fatal(err)
		}
		cmp, err := compare.Executions(store, *execA, *execB)
		if err != nil {
			fatalExec(err, *execA, *execB)
		}
		resp = server.NewCompareResponse(cmp, *metric, *threshold, *top)
	}
	printComparison(resp, *threshold, *diagnose, *top)
}

// printComparison renders a comparison, computed here or by the server:
// the metric filter, threshold and top are already applied to it.
func printComparison(resp server.CompareResponse, threshold float64, diagnose bool, top int) {
	sum := resp.Summary
	fmt.Printf("comparing %s (A) vs %s (B)\n", resp.ExecA, resp.ExecB)
	fmt.Printf("aligned pairs: %d   only in A: %d   only in B: %d\n",
		sum.Paired, sum.OnlyA, sum.OnlyB)
	fmt.Printf("geometric-mean ratio B/A: %.4f   mean difference: %+.4f\n\n",
		sum.GeoMeanRatio, sum.MeanDiff)

	if diagnose {
		if len(resp.Bottlenecks) == 0 {
			fmt.Println("no bottlenecks: B is not slower than A anywhere")
			return
		}
		fmt.Printf("bottlenecks (B slower than A), worst first:\n")
		fmt.Printf("%-40s %-24s %10s %8s\n", "context", "metric", "delta", "share")
		for _, f := range resp.Bottlenecks {
			fmt.Printf("%-40s %-24s %+10.4f %7.1f%%\n",
				contextLabel(f.Pair), f.Pair.Metric, f.Delta, f.Contribution*100)
		}
		return
	}

	for _, section := range []struct {
		name   string
		sign   string
		deltas []server.CompareDelta
	}{{"regressions", "+", resp.Regressions}, {"improvements", "-", resp.Improvements}} {
		fmt.Printf("%s beyond %.0f%%: %d\n", section.name, threshold*100, len(section.deltas))
		for i, r := range section.deltas {
			if i >= top {
				fmt.Printf("  ... %d more\n", len(section.deltas)-top)
				break
			}
			fmt.Printf("  %-40s %-24s %8.3f -> %8.3f  (%s%.1f%%)\n",
				contextLabel(r.Pair), r.Pair.Metric, r.Pair.A, r.Pair.B, section.sign, r.Percent)
		}
	}
}

// contextLabel renders the portable context of a pair compactly.
func contextLabel(p server.ComparePair) string {
	ctx := make([]core.ResourceName, len(p.Context))
	for i, s := range p.Context {
		ctx[i] = core.ResourceName(s)
	}
	var parts []string
	for _, r := range ctx {
		if r.Depth() > 1 { // skip bare applications; keep code/time paths
			parts = append(parts, r.BaseName())
		}
	}
	if len(parts) == 0 {
		for _, r := range ctx {
			parts = append(parts, r.BaseName())
		}
	}
	return strings.Join(parts, ",")
}

// fatalExec maps a missing execution onto a one-line hint naming the
// execution; anything else falls through to fatal.
func fatalExec(err error, execs ...string) {
	if errors.Is(err, datastore.ErrNotFound) {
		for _, e := range execs {
			if strings.Contains(err.Error(), strconv.Quote(e)) {
				fmt.Fprintf(os.Stderr,
					"ptcompare: execution %q not found (try 'ptquery -report executions' to list executions)\n", e)
				os.Exit(1)
			}
		}
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptcompare:", err)
	os.Exit(1)
}
