// Command ptload loads PTdf files into a PerfTrack data store through the
// PTdataStore interface (§3.3), either directly against a store directory
// or over the network against a running ptserved instance.
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

	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

func main() {
	dbDir := flag.String("db", "", "data store directory")
	remote := flag.String("remote", "", "ptserved base URL (e.g. http://localhost:7075) instead of -db")
	checkpoint := flag.Bool("checkpoint", true, "checkpoint the store after loading (direct -db mode only)")
	workers := flag.Int("j", 1, "parallel decode workers (bulk mode when > 1)")
	verbose := flag.Bool("verbose", false, "print client instrumentation (requests, retries, backoff) after a -remote load")
	flag.Parse()
	if (*dbDir == "") == (*remote == "") || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "ptload: exactly one of -db or -remote, and at least one PTdf file, are required")
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "ptload: -j must be at least 1")
		os.Exit(2)
	}
	if *remote != "" {
		loadRemote(*remote, flag.Args(), *workers, *verbose)
		return
	}
	fe, err := reldb.OpenFile(*dbDir)
	if err != nil {
		fatal(err)
	}
	defer fe.Close()
	store, err := datastore.Open(fe)
	if err != nil {
		fatal(err)
	}
	var total datastore.LoadStats
	failed := 0
	if *workers > 1 {
		for _, dr := range store.BulkLoadFiles(flag.Args(), *workers) {
			if dr.Err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "ptload:", dr.Err)
				continue
			}
			printFileStats(dr.Name, dr.Stats)
			total.Add(dr.Stats)
		}
	} else {
		for _, path := range flag.Args() {
			stats, err := store.LoadPTdfFile(path)
			if err != nil {
				fatal(err)
			}
			printFileStats(path, stats)
			total.Add(stats)
		}
	}
	if *checkpoint {
		if err := fe.Checkpoint(); err != nil {
			fatal(err)
		}
	}
	st := store.Stats()
	size, err := fe.DiskSize()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d records total; store now holds %d executions, %d results, %d resources (%.1f MB on disk)\n",
		total.Records, st.Executions, st.Results, st.Resources, float64(size)/(1<<20))
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d files failed", failed, flag.NArg()))
	}
}

// loadRemote streams the files to a ptserved instance. Sequential mode
// posts one document per request with retry; bulk mode (-j > 1) posts
// all files as one multipart stream and reports each document's status
// line as the server commits it.
func loadRemote(baseURL string, paths []string, workers int, verbose bool) {
	c := client.New(baseURL)
	if verbose {
		// onFatal, not defer: fatal's os.Exit skips deferred calls, and the
		// retry counters matter most when a load fails.
		onFatal = func() { printClientCounters(c) }
		defer printClientCounters(c)
	}
	ctx := context.Background()
	var total datastore.LoadStats
	failed := 0
	if workers > 1 {
		docs := make([]client.BatchDoc, len(paths))
		files := make([]*os.File, len(paths))
		for i, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			files[i] = f
			docs[i] = client.BatchDoc{Name: path, R: f}
		}
		summary, err := c.LoadBatch(ctx, docs, workers, func(st server.LoadDocStatus) {
			if st.Error != "" {
				fmt.Fprintln(os.Stderr, "ptload:", st.Error)
				return
			}
			printFileStats(st.Doc, st.Stats)
		})
		for _, f := range files {
			f.Close()
		}
		if err != nil {
			fatal(err)
		}
		total = summary.Stats
		failed = summary.Failed
	} else {
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			resp, err := c.Load(ctx, f)
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			printFileStats(path, resp.Stats)
			total.Add(resp.Stats)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d records total; store now holds %d executions, %d results, %d resources\n",
		total.Records, st.Store.Executions, st.Store.Results, st.Store.Resources)
	if failed > 0 {
		fatal(fmt.Errorf("%d of %d files failed", failed, len(paths)))
	}
}

func printFileStats(path string, stats datastore.LoadStats) {
	fmt.Printf("%s: %d records (%d resources, %d attributes, %d results)\n",
		path, stats.Records, stats.Resources, stats.Attributes, stats.Results)
}

func printClientCounters(c *client.Client) {
	st := c.Counters()
	fmt.Fprintf(os.Stderr, "ptload: client: %d requests, %d retries, %d backoff sleeps (%s total), %d stream aborts\n",
		st.Requests, st.Retries, st.BackoffSleeps, st.BackoffTotal, st.StreamAborts)
}

// onFatal, when set, runs before fatal exits (used by -verbose to flush
// the client counters past os.Exit).
var onFatal func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptload:", err)
	if onFatal != nil {
		onFatal()
	}
	os.Exit(1)
}
