package diagnose

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// fleetStore loads a synthetic fleet into a fresh in-memory store.
func fleetStore(t testing.TB, spec gen.FleetSpec) (*datastore.Store, *gen.Fleet) {
	t.Helper()
	fleet, err := gen.FleetRecords(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for _, rec := range fleet.Records {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, fleet
}

func TestDiagnoseFleetRanksPlantedPredicate(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 100, Seed: 7})
	res, err := Run(context.Background(), s, Spec{
		ExecsA:  fleet.Fast,
		ExecsB:  fleet.Slow,
		Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatalf("no explanations; trace:\n%s", strings.Join(res.Trace, "\n"))
	}
	top := res.Explanations[0]
	if got := top.Pred.String(); got != "compiler = -O0" {
		t.Fatalf("top explanation %q (score %.3f), want planted compiler = -O0; trace:\n%s",
			got, top.Score, strings.Join(res.Trace, "\n"))
	}
	if top.Score <= 0.99 {
		t.Fatalf("planted predicate score = %v, want ~1", top.Score)
	}
	if len(res.Explanations) > 1 && res.Explanations[1].Score >= top.Score {
		t.Fatalf("planted predicate does not dominate: #2 %q score %v",
			res.Explanations[1].Pred, res.Explanations[1].Score)
	}
	// The headline perf must reflect the planted 2x slowdown.
	if res.Ratio < 1.8 || res.Ratio > 2.2 {
		t.Fatalf("side ratio = %v, want ~2", res.Ratio)
	}
	if res.Keys == 0 || res.Candidates == 0 || len(res.Trace) == 0 {
		t.Fatalf("missing search metadata: keys %d candidates %d trace %d",
			res.Keys, res.Candidates, len(res.Trace))
	}
	// Bottleneck ranking: both time metrics slowed down 2x; wall clock
	// time (100 vs 20 base) contributes the most.
	if len(res.Bottlenecks) == 0 || res.Bottlenecks[0].Metric != "wall clock time" {
		t.Fatalf("bottlenecks = %+v", res.Bottlenecks)
	}
}

func TestDiagnoseParallelMatchesSerial(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 60, Seed: 11})
	serial, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Explanations, parallel.Explanations) {
		t.Fatalf("serial and parallel diverge:\n%+v\nvs\n%+v", serial.Explanations, parallel.Explanations)
	}
	if !reflect.DeepEqual(serial.Bottlenecks, parallel.Bottlenecks) {
		t.Fatalf("bottlenecks diverge")
	}
}

func TestDiagnoseNumericThresholdPredicate(t *testing.T) {
	// Plant a purely numeric discriminator with a domain small enough to
	// enumerate but where only a threshold separates the sides exactly.
	var recs []ptdf.Record
	recs = append(recs, ptdf.ApplicationRec{Name: "app"})
	var fast, slow []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("exec-%02d", i)
		recs = append(recs, ptdf.ExecutionRec{Name: name, App: "app"})
		res := core.ResourceName("/" + name)
		recs = append(recs, ptdf.ResourceRec{Name: res, Type: "execution", Exec: name})
		mem := 100 + 10*(i%4) // slow: 100..130
		value := 50.0
		if i%2 == 0 {
			mem = 200 + 10*(i%4) // fast: 200..230
			value = 25.0
			fast = append(fast, name)
		} else {
			slow = append(slow, name)
		}
		recs = append(recs, ptdf.ResourceAttributeRec{
			Resource: res, Attr: "memory per node MB", Value: fmt.Sprintf("%d", mem), AttrType: "string",
		})
		recs = append(recs, ptdf.PerfResultRec{
			Exec: name, Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{res}, Type: core.FocusPrimary}},
			Tool: "gen", Metric: "wall clock time", Units: "seconds", Value: value,
		})
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
	res, err := Run(context.Background(), s, Spec{ExecsA: fast, ExecsB: slow})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	top := res.Explanations[0]
	if top.Pred.Attr != "memory per node MB" || top.Pred.Op != "<=" {
		t.Fatalf("top = %q, want a memory threshold", top.Pred)
	}
	if top.Effect != 1 {
		t.Fatalf("threshold effect = %v, want 1", top.Effect)
	}
}

func TestDiagnoseOneVsOneAlignsContexts(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 10, Seed: 3})
	res, err := Run(context.Background(), s, Spec{ExecA: fleet.Fast[0], ExecB: fleet.Slow[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedPairs == 0 {
		t.Fatal("no aligned pairs in 1v1 mode")
	}
	if len(res.Contexts) == 0 {
		t.Fatal("no context findings in 1v1 mode")
	}
	if res.Delta <= 0 {
		t.Fatalf("delta = %v, want positive (B planted slower)", res.Delta)
	}
	// Set mode must not produce context findings.
	setRes, err := Run(context.Background(), s, Spec{ExecsA: fleet.Fast, ExecsB: fleet.Slow})
	if err != nil {
		t.Fatal(err)
	}
	if setRes.AlignedPairs != 0 || len(setRes.Contexts) != 0 {
		t.Fatalf("set mode produced 1v1 evidence: %d pairs, %d contexts",
			setRes.AlignedPairs, len(setRes.Contexts))
	}
}

func TestDiagnoseFamilySides(t *testing.T) {
	// Select the sides by pr-filter families over the planted attribute's
	// values, exercising the ApplyFilterCtx → MatchingResultIDsCtx →
	// ExecutionsOfResults path.
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 30, Seed: 5})
	res, err := Run(context.Background(), s, Spec{
		FamiliesA: []string{"attr=compiler=-O2"},
		FamiliesB: []string{"attr=compiler=-O0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SideA) != len(fleet.Fast) || len(res.SideB) != len(fleet.Slow) {
		t.Fatalf("family selection: %d/%d executions, want %d/%d",
			len(res.SideA), len(res.SideB), len(fleet.Fast), len(fleet.Slow))
	}
	if res.Ratio < 1.8 || res.Ratio > 2.2 {
		t.Fatalf("ratio = %v, want ~2", res.Ratio)
	}
}

func TestDiagnoseErrors(t *testing.T) {
	s, fleet := fleetStore(t, gen.FleetSpec{Execs: 6, Seed: 1})
	// Unknown execution → ErrNotFound.
	_, err := Run(context.Background(), s, Spec{ExecA: fleet.Fast[0], ExecB: "nope"})
	if !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("unknown execution: %v, want ErrNotFound", err)
	}
	// Ambiguous side selection → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "x", FamiliesA: []string{"type=application"}, ExecB: "y"})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("ambiguous side: %v, want ErrBadSpec", err)
	}
	// No side at all → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "x"})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("missing side: %v, want ErrBadSpec", err)
	}
	// Bad family spec → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{FamiliesA: []string{"bogus=="}, ExecB: fleet.Slow[0]})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("bad family: %v, want ErrBadSpec", err)
	}
	// Families matching nothing → ErrNotFound.
	_, err = Run(context.Background(), s, Spec{FamiliesA: []string{"name=/no/such/resource"}, ExecB: fleet.Slow[0]})
	if !errors.Is(err, datastore.ErrNotFound) {
		t.Fatalf("empty family: %v, want ErrNotFound", err)
	}
	// Out-of-range knobs → ErrBadSpec.
	_, err = Run(context.Background(), s, Spec{ExecA: "a", ExecB: "b", MinCoverage: 2})
	if !errors.Is(err, datastore.ErrBadSpec) {
		t.Fatalf("bad min_coverage: %v, want ErrBadSpec", err)
	}
}

func TestParseRequest(t *testing.T) {
	sp, err := ParseRequest([]byte(`{"exec_a":"a","exec_b":"b","metric":"m","top":3,"explain":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.ExecA != "a" || sp.ExecB != "b" || sp.Metric != "m" || sp.Top != 3 || !sp.Explain {
		t.Fatalf("parsed %+v", sp)
	}
	for _, bad := range []string{
		``,
		`{`,
		`{"exec_a":"a"}`, // missing side B
		`{"exec_a":"a","exec_b":"b","unknown":1}`,     // unknown field
		`{"exec_a":"a","exec_b":"b"} trailing`,        // trailing data
		`{"exec_a":"a","execs_a":["x"],"exec_b":"b"}`, // ambiguous side
		`{"exec_a":"a","exec_b":"b","top":-1}`,
	} {
		if _, err := ParseRequest([]byte(bad)); !errors.Is(err, datastore.ErrBadSpec) {
			t.Errorf("ParseRequest(%q) = %v, want ErrBadSpec", bad, err)
		}
	}
}
