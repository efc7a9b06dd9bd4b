package datastore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/paradyn"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/rowdigest.golden")

// digestStore loads the IRS, SMG (UV: benchmark, PMAPI and mpiP; BG/L:
// benchmark alone) and Paradyn generators' PTdf and one bench doc_full
// into a fresh store. The machine catalogs go through Batch.Stage; every
// document goes through LoadPTdfCtx as PTdf text, so both staging paths
// build rows.
func digestStore(t *testing.T) *datastore.Store {
	t.Helper()
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Engine().Close() })
	ctx := context.Background()
	for _, name := range []string{"MCR", "UV", "BGL"} {
		m, err := gen.MachineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := s.NewBatch()
		for _, rec := range m.ToPTdf(4) {
			b.Stage(rec)
		}
		if _, err := b.CommitCtx(ctx); err != nil {
			t.Fatalf("machine %s: %v", name, err)
		}
	}
	load := func(label string, doc []byte) {
		t.Helper()
		if _, err := s.LoadPTdfCtx(ctx, bytes.NewReader(doc)); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	text := func(recs []ptdf.Record) []byte {
		var buf bytes.Buffer
		if err := ptdf.WriteAll(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for i, spec := range []gen.ExecSpec{
		{Kind: gen.KindIRS, Execution: "irs-0", App: "irs", Machine: "MCR", NProcs: 8, Seed: 1},
		{Kind: gen.KindSMGUV, Execution: "smg-uv-0", App: "smg2000", Machine: "UV", NProcs: 8, Seed: 2},
		{Kind: gen.KindSMGBGL, Execution: "smg-bgl-0", App: "smg2000", Machine: "BGL", NProcs: 16, Seed: 3},
	} {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(i))
		if _, err := gen.WriteExecution(dir, spec); err != nil {
			t.Fatal(err)
		}
		recs, err := gen.ConvertExecution(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		load(spec.Execution, text(recs))
	}
	bundle := paradyn.Synthesize(paradyn.Run{
		Execution: "irs-pd-0", NModules: 3, NFuncs: 6, NProcs: 4,
		NBins: 40, BinWidth: 0.2, NFoci: 2, NanFrac: 0.1, Seed: 5,
	})
	for _, form := range []struct {
		exec  string
		build func(app, exec string) ([]ptdf.Record, error)
	}{{"irs-pd-0", bundle.ToPTdf}, {"irs-pd-1", bundle.ToPTdfCompact}} {
		recs, err := form.build("irs", form.exec)
		if err != nil {
			t.Fatal(err)
		}
		load(form.exec, text(recs))
	}
	c := corpus.Generate(1, 1)
	load("shared doc", corpus.SharedDoc())
	load("doc_full", c.ExecDoc(0))
	return s
}

// rowDigest renders one line per table: its name, row count, and the
// SHA-256 of every row's ID and cells in ID order.
func rowDigest(s *datastore.Store) string {
	var out strings.Builder
	names := s.Engine().TableNames()
	slices.Sort(names)
	for _, name := range names {
		tab, _ := s.Engine().Table(name)
		h := sha256.New()
		var slab []reldb.Value
		rows := 0
		tab.Lookup("", nil, func(b *reldb.ColumnBlock, i int) bool {
			fmt.Fprintf(h, "%d\t%s\n", b.IDs().At(i), b.Row(i, &slab).String())
			rows++
			return true
		})
		fmt.Fprintf(&out, "%s %d %x\n", name, rows, h.Sum(nil))
	}
	return out.String()
}

// TestRowDigestGolden pins the rows a load builds, row ID for row ID and
// cell for cell, to testdata/rowdigest.golden: a change to how PTdf is
// decoded or staged must leave every table as it was.
//
//	go test ./internal/datastore/ -run TestRowDigestGolden -update
func TestRowDigestGolden(t *testing.T) {
	got := rowDigest(digestStore(t))
	path := filepath.Join("testdata", "rowdigest.golden")
	if *updateDigest {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got != string(want) {
		t.Fatalf("rows drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestBadLastRecordLeavesNothing loads a doc_full whose last line is a
// result naming an unknown resource: the whole document rolls back, no
// table holds a row of it, and the error names the line's record.
func TestBadLastRecordLeavesNothing(t *testing.T) {
	s := digestStore(t)
	before := rowDigest(s)
	c := corpus.Generate(1, 2)
	doc := c.ExecDoc(1)
	records := bytes.Count(doc, []byte("\n")) + 1
	doc = append(doc, `PerfResult e0001 /e0001/p0,/nowhere(primary) t m 1 u`+"\n"...)
	_, err := s.LoadPTdfCtx(context.Background(), bytes.NewReader(doc))
	if !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("load = %v, want ErrNotFound", err)
	}
	if want := fmt.Sprintf("record %d:", records); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "/nowhere") {
		t.Fatalf("error %q does not name record %d and its resource", err, records)
	}
	if after := rowDigest(s); after != before {
		t.Fatalf("a failed load left rows behind:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// A line that does not parse names its line number.
	bad := append(c.ExecDoc(1), "PerfResult e0001 /e0001/p0(primary) t m notanumber u\n"...)
	_, err = s.LoadPTdfCtx(context.Background(), bytes.NewReader(bad))
	if !errors.Is(err, datastore.ErrBadSpec) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", records)) {
		t.Fatalf("load = %v, want ErrBadSpec naming line %d", err, records)
	}
	if after := rowDigest(s); after != before {
		t.Fatal("a document that failed to decode left rows behind")
	}
}
