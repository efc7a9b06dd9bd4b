package experiments

// Synthetic corpora behind the benchmarks in the repo root: a 100k-row
// result corpus (BenchmarkMaterializeEngines, BenchmarkSQLAggregate), the
// same rows as one segment per execution (BenchmarkSQLAggregate/dim) and a
// diagnosis fleet with one planted discriminating attribute
// (BenchmarkDiagnose).

import (
	"context"
	"fmt"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
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
	if err := commit(s, recs); err != nil {
		return nil, nil, err
	}
	ids, err := s.MatchingResultIDsCtx(context.TODO(), core.PRFilter{})
	if err != nil {
		return nil, nil, err
	}
	return s, ids, nil
}

// SeedSegmentedSynthStore loads the synthetic corpus of rows results in
// segments batch commits, compacting after each, so the result table lands
// in that many columnar segments instead of one (a single compaction pass
// flushes the whole tail into one segment file).
func SeedSegmentedSynthStore(eng *reldb.DB, rows, segments int) (*datastore.Store, error) {
	recs := SynthResultRecords(rows)
	s, err := datastore.Open(eng)
	if err != nil {
		return nil, err
	}
	nDims := len(recs) - rows // application, execution, and resource records lead the slice
	chunk := max((rows+segments-1)/segments, 1)
	for start := 0; start < len(recs); {
		end := min(start+chunk, len(recs))
		if start < nDims {
			end = nDims // dimensions commit in one leading batch
		}
		if err := commit(s, recs[start:end]); err != nil {
			return nil, err
		}
		if start >= nDims {
			if err := eng.CompactSegments(); err != nil {
				return nil, err
			}
		}
		start = end
	}
	return s, nil
}

// SeedExecutionSegments loads execs synthetic executions of perExec
// results each, committing and compacting each alone, so every execution
// fills a segment of its own, whose execution column is constant. Then
// tail more executions of tailRows results each stay in the uncompacted
// tail. Executions are named e0000, e0001, …; even ones report metrics
// a-00…a-07 through tool synth-a, odd ones b-00…b-07 through synth-b,
// the disjoint metric sets of two tools.
func SeedExecutionSegments(eng *reldb.DB, execs, perExec, tail, tailRows int) (*datastore.Store, error) {
	s, err := datastore.Open(eng)
	if err != nil {
		return nil, err
	}
	recs := []ptdf.Record{ptdf.ApplicationRec{Name: "synth"}, ptdf.ResourceRec{Name: "/synth", Type: "application"}}
	for p := 0; p < synthProcs; p++ {
		recs = append(recs, ptdf.ResourceRec{Name: synthProcName(p), Type: "grid/machine/partition/node/processor"})
	}
	if err := commit(s, recs); err != nil {
		return nil, err
	}
	for k := range execs + tail {
		n, exec, tool := perExec, fmt.Sprintf("e%04d", k), "a"
		if k >= execs {
			n = tailRows
		}
		if k%2 == 1 {
			tool = "b"
		}
		recs := []ptdf.Record{ptdf.ExecutionRec{Name: exec, App: "synth"}}
		for i := range n {
			recs = append(recs, ptdf.PerfResultRec{
				Exec: exec,
				Sets: []ptdf.ResourceSet{{
					Names: []core.ResourceName{"/synth", synthProcName(i)},
					Type:  core.FocusPrimary,
				}},
				Tool: "synth-" + tool, Metric: fmt.Sprintf("%s-%02d", tool, i%8),
				Value: float64(i) * 0.25, Units: "seconds",
			})
		}
		if err := commit(s, recs); err != nil {
			return nil, err
		}
		if k < execs {
			if err := eng.CompactSegments(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// SeedFleetStore builds the standard diagnosis fleet (execs executions,
// planted compiler=-O0 2x slowdown) in a fresh in-memory store.
func SeedFleetStore(execs int, seed int64) (*datastore.Store, *gen.Fleet, error) {
	fleet, err := gen.FleetRecords(gen.FleetSpec{Execs: execs, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return nil, nil, err
	}
	if err := commit(s, fleet.Records); err != nil {
		return nil, nil, err
	}
	return s, fleet, nil
}

// commit stages recs into one batch and commits it, so they load whole
// or not at all.
func commit(s *datastore.Store, recs []ptdf.Record) error {
	b := s.NewBatch()
	for _, rec := range recs {
		b.Stage(rec)
	}
	_, err := b.CommitCtx(context.TODO())
	return err
}
