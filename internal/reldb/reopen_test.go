package reldb_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
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

// renderRow renders a row with its floats by their bits.
func renderRow(row reldb.Row) string {
	var b strings.Builder
	for _, v := range row {
		if v.Kind() == reldb.KindFloat {
			fmt.Fprintf(&b, "f%x ", math.Float64bits(v.Float64()))
		} else {
			fmt.Fprintf(&b, "%s ", v)
		}
	}
	return b.String()
}

// renderBlock renders a block's rows and, for a whole segment, the
// dictionary codes of its string columns.
func renderBlock(tab *reldb.Table, what string, b *reldb.ColumnBlock, segment bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s of %d:", tab.Schema().Name, what, b.Len())
	for i, id := range reldb.Values(b.IDs()) {
		fmt.Fprintf(&sb, "\n%d: %s", id, renderRow(reldb.BlockRow(b, i)))
	}
	for ci, col := range tab.Schema().Columns {
		if segment && col.Type == reldb.KindString {
			fmt.Fprintf(&sb, "\n%s codes %v", col.Name, reldb.StringCodes(b, ci))
		}
	}
	return sb.String()
}

// hotReads renders what every hot table reads three ways: each block of a
// full block scan, each block Gather makes of the scanned row IDs, and
// each row GetByPK finds by its own key.
func hotReads(t *testing.T, eng *reldb.DB) []string {
	t.Helper()
	var out []string
	for _, name := range reldb.HotTables {
		tab, ok := eng.Table(name)
		if !ok {
			t.Fatalf("no table %s", name)
		}
		scan, err := tab.Blocks(math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		var rows []reldb.Row
		k := 0
		err = scan.Each(func(b *reldb.ColumnBlock) error {
			out = append(out, renderBlock(tab, "block", b, k < len(scan.Segments)))
			k++
			ids = append(ids, reldb.Values(b.IDs())...)
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, reldb.BlockRow(b, i))
			}
			return nil
		})
		if err == nil {
			slices.Sort(ids)
			err = tab.Gather(ids, func(b *reldb.ColumnBlock) error {
				out = append(out, renderBlock(tab, "gather", b, false))
				return nil
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		var pk []int
		for _, col := range tab.Schema().PrimaryKey {
			pk = append(pk, slices.IndexFunc(tab.Schema().Columns, func(c reldb.Column) bool { return c.Name == col }))
		}
		for _, row := range rows {
			key := make([]reldb.Value, len(pk))
			for i, ci := range pk {
				key[i] = row[ci]
			}
			got, id, ok := tab.GetByPK(key...)
			out = append(out, fmt.Sprintf("%s by key %v: %d %v %s", name, key, id, ok, renderRow(got)))
		}
	}
	return out
}

// execRecs generates one execution of a Table 1 dataset as PTdf records.
func execRecs(t *testing.T, spec gen.ExecSpec) []ptdf.Record {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.WriteExecution(dir, spec); err != nil {
		t.Fatal(err)
	}
	recs, err := gen.ConvertExecution(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestReopenReadsEqual: every hot table reads the same through Blocks,
// Gather and GetByPK after a close and a reopen as before the close —
// floats by their bits, a segment's string columns with the same
// dictionary codes — over the benchmark's corpus and IRS, SMG/mpiP and
// Paradyn data. What a segment file holds decodes to what was resident
// when it was written.
func TestReopenReadsEqual(t *testing.T) {
	catalog := func(t *testing.T) [][]ptdf.Record {
		var docs [][]ptdf.Record
		for _, m := range gen.Catalog() {
			docs = append(docs, m.ToPTdf(2))
		}
		return docs
	}
	irs := func(name, machine string, seed int64) gen.ExecSpec {
		return gen.ExecSpec{Kind: gen.KindIRS, Execution: name, App: "irs", Machine: machine, NProcs: 16, Seed: seed}
	}
	datasets := []struct {
		name string
		ptdf [][]byte                         // documents as text
		recs func(*testing.T) [][]ptdf.Record // documents as records
	}{
		{name: "corpus", ptdf: func() [][]byte {
			c := corpus.Generate(1, 2)
			return [][]byte{corpus.SharedDoc(), c.ExecDoc(0), c.ExecDoc(1), c.SmallDoc(0)}
		}()},
		{name: "IRS", recs: func(t *testing.T) [][]ptdf.Record {
			return append(catalog(t), execRecs(t, irs("irs-0", "MCR", 1)), execRecs(t, irs("irs-1", "Frost", 2)))
		}},
		{name: "mpiP", recs: func(t *testing.T) [][]ptdf.Record {
			return append(catalog(t), execRecs(t, gen.ExecSpec{Kind: gen.KindSMGUV, Execution: "uv-0", App: "smg2000", Machine: "UV", NProcs: 8, Seed: 3}))
		}},
		{name: "Paradyn", recs: func(t *testing.T) [][]ptdf.Record {
			recs, err := paradyn.Synthesize(paradyn.Run{Execution: "irs-pd-0", NModules: 3, NFuncs: 8, NProcs: 4,
				NBins: 60, BinWidth: 0.2, NFoci: 2, NanFrac: 0.1, Seed: 5}).ToPTdf("irs", "irs-pd-0")
			if err != nil {
				t.Fatal(err)
			}
			return append(catalog(t), execRecs(t, irs("irs-0", "MCR", 1)), recs)
		}},
	}
	for _, ds := range datasets {
		t.Run(ds.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := reldb.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { eng.Close() }()
			eng.SetSegmentFlushRows(512) // several segments per table
			s, err := datastore.Open(eng)
			if err != nil {
				t.Fatal(err)
			}
			for _, doc := range ds.ptdf {
				if _, err := s.LoadPTdfCtx(context.Background(), bytes.NewReader(doc)); err != nil {
					t.Fatal(err)
				}
			}
			if ds.recs != nil {
				for _, doc := range ds.recs(t) {
					b := s.NewBatch()
					for _, rec := range doc {
						b.Stage(rec)
					}
					if _, err := b.CommitCtx(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := eng.Checkpoint(); err != nil { // every hot row into a segment file
				t.Fatal(err)
			}
			before := hotReads(t, eng)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if eng, err = reldb.OpenFile(dir); err != nil {
				t.Fatal(err)
			}
			after := hotReads(t, eng)
			if len(after) != len(before) {
				t.Fatalf("%d reads after the reopen, %d before", len(after), len(before))
			}
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("read %d differs after the reopen:\n%.2000s\nbefore:\n%.2000s", i, after[i], before[i])
				}
			}
		})
	}
}
