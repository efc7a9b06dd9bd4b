// Command ptbuild is the build-capture wrapper (§3.3): it runs (or reads)
// a make log, captures the build environment and compilation information
// — compilers, MPI wrapper scripts, flags, linked libraries — and emits
// PTdf, either to a file or directly into a data store.
//
// Usage:
//
//	ptbuild -name irs-build-1 -app irs -log make.out [-o build.ptdf | -db DIR]
//
// With -log - the make log is read from standard input, so the tool can
// wrap a live build: make | ptbuild -name ... -log -
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"perftrack/internal/cli"
	"perftrack/internal/collect"
	"perftrack/internal/ptdf"
)

func main() {
	name := flag.String("name", "", "unique build name (required)")
	app := flag.String("app", "", "application name (required)")
	logPath := flag.String("log", "", "make log file, or - for stdin (required)")
	out := flag.String("o", "", "write PTdf to this file")
	dbDir := flag.String("db", "", "load directly into this data store")
	flag.Parse()
	if *name == "" || *app == "" || *logPath == "" {
		cli.Usage("-name, -app, and -log are required")
	}
	var logReader io.Reader = os.Stdin
	if *logPath != "-" {
		f, err := os.Open(*logPath)
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close()
		logReader = f
	}
	info, err := collect.CaptureBuild(*name, *app, logReader)
	if err != nil {
		cli.Fatal(err)
	}
	recs := info.ToPTdf()
	fmt.Printf("captured build %s: %d compiler invocations, %d libraries, %d PTdf records\n",
		*name, len(info.Invocations), len(info.Libraries), len(recs))
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
