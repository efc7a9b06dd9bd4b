package experiments

// Synthetic 100k-row corpus and timing harness behind the storage-engine
// benchmarks: BenchmarkMaterializeEngines / BenchmarkBulkLoad in the repo
// root and `ptbench -benchjson`, which emits the BENCH_materialize.json /
// BENCH_bulkload.json artifacts consumed by CI.

import (
	"fmt"
	"runtime/debug"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// synthProcs is the processor fan-out of the synthetic corpus; foci are
// shared heavily across results, as in the real SMG-UV dataset.
const synthProcs = 64

func synthProcName(i int) core.ResourceName {
	return core.ResourceName(fmt.Sprintf("/SG/SM/batch/n%d/p%d", (i%synthProcs)/8, i%8))
}

// SynthResultRecords builds a deterministic synthetic corpus: one
// application and execution, 64 processor resources, and n performance
// results over 16 metrics, each with one primary context. It scales the
// Table 1 workload shape to arbitrary row counts without paying raw-data
// generation and parsing.
func SynthResultRecords(n int) []ptdf.Record {
	recs := make([]ptdf.Record, 0, n+synthProcs+3)
	recs = append(recs,
		ptdf.ApplicationRec{Name: "synth"},
		ptdf.ExecutionRec{Name: "synth-exec", App: "synth"},
		ptdf.ResourceRec{Name: "/synth", Type: "application"},
	)
	for p := 0; p < synthProcs; p++ {
		recs = append(recs, ptdf.ResourceRec{
			Name: synthProcName(p),
			Type: "grid/machine/partition/node/processor",
		})
	}
	for i := 0; i < n; i++ {
		recs = append(recs, ptdf.PerfResultRec{
			Exec: "synth-exec",
			Sets: []ptdf.ResourceSet{{
				Names: []core.ResourceName{"/synth", synthProcName(i)},
				Type:  core.FocusPrimary,
			}},
			Tool: "synth", Metric: fmt.Sprintf("metric-%02d", i%16),
			Value: float64(i) * 0.25, Units: "seconds",
		})
	}
	return recs
}

// SeedSynthStore opens a store over eng and loads recs in one batch
// commit, returning the store and the full matched result-ID set.
func SeedSynthStore(eng *reldb.DB, recs []ptdf.Record) (*datastore.Store, []int64, error) {
	s, err := datastore.Open(eng)
	if err != nil {
		return nil, nil, err
	}
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.Commit(); err != nil {
		return nil, nil, err
	}
	ids, err := s.MatchingResultIDs(core.PRFilter{})
	if err != nil {
		return nil, nil, err
	}
	return s, ids, nil
}

// BenchResult is one measurement row in the BENCH_*.json artifacts.
type BenchResult struct {
	Op       string  `json:"op"`     // materialize or bulkload
	Engine   string  `json:"engine"` // mem or segment
	Rows     int     `json:"rows"`
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_sec"`
	Date     string  `json:"date"` // UTC, YYYY-MM-DD
}

// MaterializeBenchmark times MaterializeResults over the full synthetic
// ID set on one engine kind, averaging iters runs. The reported MB/s is
// row payload bytes materialized per second.
func MaterializeBenchmark(kind, dir string, rows, iters int) (BenchResult, error) {
	res := BenchResult{Op: "materialize", Engine: kind, Rows: rows,
		Date: time.Now().UTC().Format("2006-01-02")}
	// Same collector pacing as BenchmarkMaterializeEngines, so the JSON
	// artifact and the go-test numbers are comparable.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	e, err := reldb.Open(kind, dir)
	if err != nil {
		return res, err
	}
	eng := e.DB()
	defer eng.Close()
	s, ids, err := SeedSynthStore(eng, SynthResultRecords(rows))
	if err != nil {
		return res, err
	}
	if err := eng.CompactSegments(); err != nil {
		return res, err
	}
	dataBytes := eng.Stats().PerTable["performance_result"].LogicalBytes()
	// One warm-up run keeps dictionary maps and the page cache out of
	// the measured loop.
	if _, err := s.MaterializeResults(ids); err != nil {
		return res, err
	}
	if iters < 1 {
		iters = 1
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		out, err := s.MaterializeResults(ids)
		if err != nil {
			return res, err
		}
		if len(out) != len(ids) {
			return res, fmt.Errorf("materialized %d of %d", len(out), len(ids))
		}
	}
	elapsed := time.Since(start)
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	res.MBPerSec = float64(dataBytes) * float64(iters) / elapsed.Seconds() / (1 << 20)
	return res, nil
}

// BulkLoadBenchmark times one batch commit of the synthetic corpus into
// a fresh store on the given engine kind. MB/s is row payload bytes
// written per second, wherever the engine keeps the rows afterwards.
func BulkLoadBenchmark(kind, dir string, rows int) (BenchResult, error) {
	res := BenchResult{Op: "bulkload", Engine: kind, Rows: rows,
		Date: time.Now().UTC().Format("2006-01-02")}
	recs := SynthResultRecords(rows)
	e, err := reldb.Open(kind, dir)
	if err != nil {
		return res, err
	}
	eng := e.DB()
	defer eng.Close()
	start := time.Now()
	if _, _, err := SeedSynthStore(eng, recs); err != nil {
		return res, err
	}
	elapsed := time.Since(start)
	res.NsPerOp = float64(elapsed.Nanoseconds())
	res.MBPerSec = float64(eng.Stats().LogicalBytes()) / elapsed.Seconds() / (1 << 20)
	return res, nil
}
