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

	"perftrack/internal/cli"
	"perftrack/internal/gen"
)

func main() {
	dbDir := flag.String("db", "", "data store directory (required)")
	machines := flag.Bool("machines", false, "preload the MCR/Frost/UV/BG/L machine catalog")
	maxNodes := flag.Int("maxnodes", 8, "cap on nodes emitted per partition when preloading machines (0 = all)")
	flag.Parse()
	if *dbDir == "" {
		cli.Usage("-db is required")
	}
	t := cli.MustOpen(*dbDir, "")
	defer t.Close()
	fmt.Printf("initialized PerfTrack store in %s (%s engine)\n", *dbDir, t.DB.Kind())
	fmt.Printf("tables: %d, base types: %d\n",
		len(t.DB.TableNames()), len(t.Store.Types().All()))
	if *machines {
		for _, m := range gen.Catalog() {
			// One batch per machine: it loads whole or not at all.
			b := t.Store.NewBatch()
			for _, rec := range m.ToPTdf(*maxNodes) {
				b.Stage(rec)
			}
			if _, err := b.Commit(); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("loaded machine %s (%s)\n", m.Name, m.GridName)
		}
	}
	if err := t.DB.Checkpoint(); err != nil {
		cli.Fatal(err)
	}
	st := t.Store.Stats()
	fmt.Printf("resources: %d, attributes: %d\n", st.Resources, st.Attributes)
}
