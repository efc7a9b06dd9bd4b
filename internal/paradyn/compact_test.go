package paradyn

import (
	"context"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func TestToPTdfCompactEmitsOneRecordPerHistogram(t *testing.T) {
	run := Run{
		Execution: "e1", NModules: 2, NFuncs: 5, NProcs: 2,
		NBins: 100, BinWidth: 0.2, NFoci: 2, NanFrac: 0.1, Seed: 4,
	}
	b := Synthesize(run)
	recs, err := b.ToPTdfCompact("irs", "e1")
	if err != nil {
		t.Fatal(err)
	}
	histRecs := 0
	scalarRecs := 0
	for _, rec := range recs {
		switch rec.(type) {
		case ptdf.PerfHistogramRec:
			histRecs++
		case ptdf.PerfResultRec:
			scalarRecs++
		}
	}
	if histRecs != len(b.Histograms) {
		t.Errorf("histogram records = %d, histograms = %d", histRecs, len(b.Histograms))
	}
	if scalarRecs != 0 {
		t.Errorf("compact form emitted %d scalar results", scalarRecs)
	}
	// Compact is dramatically smaller than per-bin.
	perBin, err := b.ToPTdf("irs", "e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs)*5 > len(perBin) {
		t.Errorf("compact %d records vs per-bin %d: expected >5x reduction",
			len(recs), len(perBin))
	}
}

func TestCompactLoadsAndPreservesBins(t *testing.T) {
	run := Run{
		Execution: "e1", NModules: 2, NFuncs: 4, NProcs: 2,
		NBins: 50, BinWidth: 0.2, NFoci: 1, NanFrac: 0.2, Seed: 5,
	}
	b := Synthesize(run)
	recs, err := b.ToPTdfCompact("irs", "e1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tab, _ := s.Engine().Table("result_histogram"); tab.Len() != len(b.Histograms) {
		t.Errorf("stored histograms = %d, want %d", tab.Len(), len(b.Histograms))
	}
	// The bins survive with full granularity.
	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(b.Histograms) {
		t.Fatalf("results = %d", len(ids))
	}
	bw, bins, ok, err := s.HistogramOf(ids[0])
	if err != nil || !ok {
		t.Fatalf("HistogramOf: %v ok=%v", err, ok)
	}
	if bw != 0.2 || len(bins) != 50 {
		t.Errorf("bw=%v bins=%d", bw, len(bins))
	}
}
