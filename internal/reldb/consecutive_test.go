package reldb_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// TestSegmentConsecutiveVectorsTakeNoBytes: once one doc_full is loaded at
// a flush threshold of 4096 rows and compacted, the row IDs and id keys of
// performance_result and the row IDs and result_id links of
// result_has_focus — each block's values one after another — are held as
// ranges that take no bytes, and the store's segments hold a result in
// at most 31.5 resident bytes, 6 below the 37.58 they took while each such
// vector held 2 bytes a row (27.13 as ranges).
func TestSegmentConsecutiveVectorsTakeNoBytes(t *testing.T) {
	eng, err := reldb.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetSegmentFlushRows(4096)
	s, err := datastore.Open(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{corpus.SharedDoc(), corpus.Generate(1, 1).ExecDoc(0)} {
		if _, err := s.LoadPTdfCtx(context.Background(), bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		table string
		col   int // the consecutive column besides the row IDs
	}{{"performance_result", 0}, {"result_has_focus", 0}} {
		tab, _ := eng.Table(c.table)
		scan, err := tab.Blocks(math.MinInt64, math.MaxInt64)
		if err != nil || len(scan.Segments) == 0 {
			t.Fatalf("%s: %d segments (%v)", c.table, len(scan.Segments), err)
		}
		for k, b := range scan.Segments {
			if ids, keys := reldb.VecBytes(b.IDs()), reldb.VecBytes(b.Ints(c.col)); ids != 0 || keys != 0 {
				t.Errorf("%s block %d of %d rows: row IDs take %d bytes and column %d %d, want none", c.table, k, b.Len(), ids, c.col, keys)
			}
		}
	}
	st := eng.Stats()
	results := st.PerTable["performance_result"].Rows
	perResult := float64(st.SegmentResidentBytes) / float64(results)
	t.Logf("%d results, %.2f segment resident bytes a result", results, perResult)
	if results != int64(corpus.Full.Results()) || perResult > 31.5 {
		t.Errorf("%d results resident in %d segment bytes, want %d in at most 31.5 a result", results, st.SegmentResidentBytes, corpus.Full.Results())
	}
}
