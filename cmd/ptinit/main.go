// Command ptinit creates and bootstraps a PerfTrack data store: it builds
// the Figure 1 schema, loads the Figure 2 base resource types, and can
// preload descriptive data for the case-study machine catalog.
//
// Usage:
//
//	ptinit -db DIR [-machines] [-maxnodes N]
package main

import (
	"flag"
	"fmt"
	"os"

	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/reldb"
)

func main() {
	dbDir := flag.String("db", "", "data store directory (required)")
	machines := flag.Bool("machines", false, "preload the MCR/Frost/UV/BG/L machine catalog")
	maxNodes := flag.Int("maxnodes", 8, "cap on nodes emitted per partition when preloading machines (0 = all)")
	flag.Parse()
	if *dbDir == "" {
		fmt.Fprintln(os.Stderr, "ptinit: -db is required")
		flag.Usage()
		os.Exit(2)
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
	fmt.Printf("initialized PerfTrack store in %s (%s engine)\n", *dbDir, fe.Kind())
	fmt.Printf("tables: %d, base types: %d\n",
		len(fe.TableNames()), len(store.Types().All()))
	if *machines {
		for _, m := range gen.Catalog() {
			for _, rec := range m.ToPTdf(*maxNodes) {
				if err := store.LoadRecord(rec); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("loaded machine %s (%s)\n", m.Name, m.GridName)
		}
	}
	if err := fe.Checkpoint(); err != nil {
		fatal(err)
	}
	st := store.Stats()
	fmt.Printf("resources: %d, attributes: %d\n", st.Resources, st.Attributes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptinit:", err)
	os.Exit(1)
}
