package model

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

func syntheticPoints(a, b, c float64, procs []int) []Point {
	var pts []Point
	for _, p := range procs {
		pf := float64(p)
		pts = append(pts, Point{Procs: p, Value: a + b/pf + c*math.Log2(pf)})
	}
	return pts
}

func TestFitRecoversExactCoefficients(t *testing.T) {
	pts := syntheticPoints(2.0, 100.0, 0.5, []int{1, 2, 4, 8, 16, 32, 64})
	m, err := FitScaling(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-2.0) > 1e-6 || math.Abs(m.B-100.0) > 1e-6 || math.Abs(m.C-0.5) > 1e-6 {
		t.Errorf("fit = %v", m)
	}
	if r2 := m.R2(pts); math.Abs(r2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", r2)
	}
}

func TestFitWithNoiseStaysClose(t *testing.T) {
	pts := syntheticPoints(5, 200, 1, []int{1, 2, 4, 8, 16, 32, 64, 128})
	// Deterministic pseudo-noise.
	for i := range pts {
		pts[i].Value *= 1 + 0.01*math.Sin(float64(i))
	}
	m, err := FitScaling(pts)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.R2(pts); r2 < 0.99 {
		t.Errorf("R2 = %v with 1%% noise", r2)
	}
	// Prediction interpolates sensibly.
	if v := m.Predict(24); v <= m.Predict(128) || v >= m.Predict(2) {
		t.Errorf("Predict(24)=%v not between Predict(128)=%v and Predict(2)=%v",
			v, m.Predict(128), m.Predict(2))
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitScaling(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitScaling([]Point{{1, 1}, {2, 2}}); err == nil {
		t.Error("two distinct counts accepted")
	}
	// Repeated counts do not add rank.
	if _, err := FitScaling([]Point{{4, 1}, {4, 2}, {4, 3}}); err == nil {
		t.Error("one distinct count accepted")
	}
	if _, err := FitScaling([]Point{{0, 1}, {2, 2}, {4, 3}}); err == nil {
		t.Error("zero process count accepted")
	}
}

func TestFitResidualOrthogonalityProperty(t *testing.T) {
	// Least squares leaves residuals orthogonal to the constant basis
	// function: the residual sum is ~0 for any fittable data.
	f := func(v1, v2, v3, v4 uint8) bool {
		pts := []Point{
			{1, float64(v1) + 1}, {2, float64(v2) + 1},
			{4, float64(v3) + 1}, {8, float64(v4) + 1},
		}
		m, err := FitScaling(pts)
		if err != nil {
			return true
		}
		sum := 0.0
		for _, pt := range pts {
			sum += pt.Value - m.Predict(pt.Procs)
		}
		return math.Abs(sum) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictClampsLowProcs(t *testing.T) {
	m := &ScalingModel{A: 1, B: 2, C: 3}
	if m.Predict(0) != m.Predict(1) || m.Predict(-5) != m.Predict(1) {
		t.Error("process counts < 1 should clamp to 1")
	}
}

func TestPredictRangeSorted(t *testing.T) {
	m := &ScalingModel{A: 1, B: 16, C: 0}
	preds := m.PredictRange([]int{16, 2, 8})
	if len(preds) != 3 || preds[0].Procs != 2 || preds[2].Procs != 16 {
		t.Errorf("preds = %+v", preds)
	}
}

func TestR2EdgeCases(t *testing.T) {
	m := &ScalingModel{A: 5}
	if !math.IsNaN(m.R2(nil)) {
		t.Error("R2 of no points should be NaN")
	}
	// Constant data perfectly predicted.
	pts := []Point{{1, 5}, {2, 5}, {4, 5}}
	if m.R2(pts) != 1 {
		t.Errorf("R2 = %v for exact constant fit", m.R2(pts))
	}
}

// TestModelVersusActualViaCompare exercises the §6 workflow end to end:
// fit a model on measured runs, store its predictions, and align
// prediction vs measurement with the comparison operators.
func TestModelVersusActualViaCompare(t *testing.T) {
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	ctx := []core.ResourceName{"/appcode/main.c/solve"}
	measured := s.NewBatch()
	measured.Stage(ptdf.ResourceRec{Name: "/app", Type: "application"})
	measured.Stage(ptdf.ResourceRec{Name: ctx[0], Type: "build/module/function"})

	// "Measured" runs follow T(p) = 1 + 64/p with 2% deviation at p=8.
	var pts []Point
	for _, p := range []int{2, 4, 8, 16, 32} {
		v := 1 + 64/float64(p)
		if p == 8 {
			v *= 1.02
		}
		execName := formatExec("actual", p)
		measured.Stage(ptdf.ExecutionRec{Name: execName, App: "app"})
		measured.Stage(ptdf.PerfResultRec{
			Exec: execName, Metric: "wall time", Value: v, Units: "seconds", Tool: "bench",
			Sets: []ptdf.ResourceSet{{Names: append([]core.ResourceName{"/app"}, ctx...), Type: core.FocusPrimary}},
		})
		pts = append(pts, Point{Procs: p, Value: v})
	}
	if _, err := measured.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	m, err := FitScaling(pts)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.R2(pts); r2 < 0.999 {
		t.Fatalf("R2 = %v", r2)
	}
	// Store predictions at the measured counts.
	recs := ToPTdf("app", "model", "wall time", "seconds", ctx,
		m.PredictRange([]int{2, 4, 8, 16, 32}))
	batch := s.NewBatch()
	for _, rec := range recs {
		batch.Stage(rec)
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Direct comparison, prediction vs actual, at p=8.
	cmp, err := compare.Sets(context.Background(), s, []string{formatExec("actual", 8)}, []string{"model-np008"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Pairs) != 1 {
		t.Fatalf("aligned pairs = %d", len(cmp.Pairs))
	}
	// The measured run deviated +2% from the trend; model vs actual ratio
	// reflects it within the fit error.
	ratio := cmp.Pairs[0].Ratio()
	if ratio > 1.0 || ratio < 0.95 {
		t.Errorf("model/actual ratio = %v, want just under 1", ratio)
	}
}

func formatExec(prefix string, p int) string {
	return ToPTdfExecName(prefix, p)
}

func TestToPTdfExecNameFormat(t *testing.T) {
	if got := ToPTdfExecName("model", 8); got != "model-np008" {
		t.Errorf("name = %q", got)
	}
}
