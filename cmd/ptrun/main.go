// Command ptrun is the run-capture wrapper (§3.3): it records the runtime
// environment of one execution — environment variables, process and
// thread counts, concurrency model, input deck — and emits PTdf to a file
// or directly into a data store.
//
// Usage:
//
//	ptrun -exec irs-001 -app irs -np 64 [-nt 4] [-input zrad3d]
//	      [-build irs-build-1] [-o run.ptdf | -db DIR]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"perftrack/internal/cli"
	"perftrack/internal/collect"
	"perftrack/internal/ptdf"
)

func main() {
	execName := flag.String("exec", "", "execution name (required)")
	app := flag.String("app", "", "application name (required)")
	np := flag.Int("np", 1, "number of processes")
	nt := flag.Int("nt", 1, "number of threads per process")
	input := flag.String("input", "", "input deck path")
	build := flag.String("build", "", "build name this run used")
	out := flag.String("o", "", "write PTdf to this file")
	dbDir := flag.String("db", "", "load directly into this data store")
	flag.Parse()
	if *execName == "" || *app == "" {
		cli.Usage("-exec and -app are required")
	}
	info := collect.CaptureRun(*execName, *app, *np, *nt, *input)
	info.BuildName = *build
	recs, err := info.ToPTdf()
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("captured run %s: %s, %d processes x %d threads, %d PTdf records\n",
		*execName, info.Concurrency, *np, *nt, len(recs))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatal(err)
		}
		err = ptdf.WriteAll(f, recs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *dbDir != "" {
		// One document, so the capture commits whole or not at all.
		var doc bytes.Buffer
		if err := ptdf.WriteAll(&doc, recs); err != nil {
			cli.Fatal(err)
		}
		t := cli.MustOpen(*dbDir, "")
		defer t.Close()
		if _, err := t.Load(context.Background(), &doc); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("loaded into %s\n", *dbDir)
	}
}
