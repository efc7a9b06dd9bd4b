// Command ptload loads PTdf files into a PerfTrack data store through the
// PTdataStore interface (§3.3), either a store directory or a running
// ptserved instance; both go through POST /v1/load, the directory's
// served in process.
//
// Usage:
//
//	ptload -db DIR [-j N] file.ptdf [file.ptdf ...]
//	ptload -remote http://host:7075 [-j N] file.ptdf [file.ptdf ...]
//
// Each file loads transactionally: a bad record rolls the whole file
// back, so a failed load never leaves a partial experiment behind. With
// -j N files decode on N parallel workers and commit in order through a
// single committer; a bad file fails alone and the rest still load.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"perftrack/internal/cli"
	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	checkpoint := flag.Bool("checkpoint", true, "checkpoint the store after loading (direct -db mode only)")
	workers := flag.Int("j", 1, "parallel decode workers (bulk mode when > 1)")
	verbose := flag.Bool("verbose", false, "print client instrumentation (requests, retries, backoff) after the load")
	flag.Parse()
	if (*dbDir == "") == (*remote == "") || flag.NArg() == 0 {
		cli.Usage("exactly one of -db or -remote, and at least one PTdf file, are required")
	}
	if *workers < 1 {
		cli.Usage("-j must be at least 1")
	}
	t := cli.MustOpen(*dbDir, *remote)
	defer t.Close()
	if *verbose {
		t.Verbose()
	}
	ctx := context.Background()
	paths := flag.Args()
	var total datastore.LoadStats
	failed := 0
	if *workers > 1 {
		// One multipart request; the server reports each document's
		// status line as it commits it.
		docs := make([]client.BatchDoc, len(paths))
		for i, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				cli.Fatal(err)
			}
			defer f.Close()
			docs[i] = client.BatchDoc{Name: path, R: f}
		}
		summary, err := t.LoadBatch(ctx, docs, *workers, func(st server.LoadDocStatus) {
			if st.Error != "" {
				fmt.Fprintln(os.Stderr, "ptload:", st.Error)
				return
			}
			printFileStats(st.Doc, st.Stats)
		})
		if err != nil {
			cli.Fatal(err)
		}
		total, failed = summary.Stats, summary.Failed
	} else {
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				cli.Fatal(err)
			}
			resp, err := t.Load(ctx, f)
			f.Close()
			if err != nil {
				cli.Fatal(fmt.Errorf("%s: %w", path, err))
			}
			printFileStats(path, resp.Stats)
			total.Add(resp.Stats)
		}
	}
	if *checkpoint && t.DB != nil {
		if err := t.DB.Checkpoint(); err != nil {
			cli.Fatal(err)
		}
	}
	st, err := t.Stats(ctx)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("loaded %d records total; store now holds %d executions, %d results, %d resources\n",
		total.Records, st.Store.Executions, st.Store.Results, st.Store.Resources)
	if failed > 0 {
		cli.Fatal(fmt.Errorf("%d of %d files failed", failed, len(paths)))
	}
}

func printFileStats(path string, stats datastore.LoadStats) {
	fmt.Printf("%s: %d records (%d resources, %d attributes, %d results)\n",
		path, stats.Records, stats.Resources, stats.Attributes, stats.Results)
}
