// Package model implements the paper's final future-work item (§6):
// incorporating performance predictions and models into PerfTrack for
// direct comparison to actual program runs. A scaling model
//
//	T(p) = a + b/p + c·log2(p)
//
// (serial fraction, perfectly-parallel fraction, and a logarithmic
// communication/overhead term) is fitted to measured values by linear
// least squares. Predictions are emitted as ordinary PTdf performance
// results under a synthetic execution with tool "model", so the §6
// comparison operators align them against real executions with no
// special cases.
package model

import (
	"fmt"
	"math"
	"sort"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
)

// Point is one measured (process count, value) observation.
type Point struct {
	Procs int
	Value float64
}

// ScalingModel is a fitted T(p) = A + B/p + C·log2(p) model.
type ScalingModel struct {
	A, B, C float64
	Metric  string
	Units   string
}

// Predict evaluates the model at a process count.
func (m *ScalingModel) Predict(procs int) float64 {
	if procs < 1 {
		procs = 1
	}
	p := float64(procs)
	return m.A + m.B/p + m.C*math.Log2(p)
}

// String renders the fitted form.
func (m *ScalingModel) String() string {
	return fmt.Sprintf("T(p) = %.4g + %.4g/p + %.4g*log2(p)", m.A, m.B, m.C)
}

// FitScaling fits the model to measured points by least squares over the
// basis {1, 1/p, log2(p)}. At least three distinct process counts are
// required.
func FitScaling(points []Point) (*ScalingModel, error) {
	distinct := make(map[int]bool)
	for _, pt := range points {
		if pt.Procs < 1 {
			return nil, fmt.Errorf("model: process count %d < 1", pt.Procs)
		}
		distinct[pt.Procs] = true
	}
	if len(distinct) < 3 {
		return nil, fmt.Errorf("model: need >= 3 distinct process counts, have %d", len(distinct))
	}
	// Normal equations: (XᵀX) w = Xᵀy with X rows [1, 1/p, log2 p].
	var xtx [3][3]float64
	var xty [3]float64
	for _, pt := range points {
		p := float64(pt.Procs)
		row := [3]float64{1, 1 / p, math.Log2(p)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * pt.Value
		}
	}
	w, err := solve3(xtx, xty)
	if err != nil {
		return nil, err
	}
	return &ScalingModel{A: w[0], B: w[1], C: w[2]}, nil
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, error) {
	var x [3]float64
	// Augment.
	var m [3][4]float64
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return x, fmt.Errorf("model: singular system (degenerate process counts)")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < 3; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	for i := 2; i >= 0; i-- {
		sum := m[i][3]
		for j := i + 1; j < 3; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// R2 reports the coefficient of determination of the model over points.
func (m *ScalingModel) R2(points []Point) float64 {
	if len(points) == 0 {
		return math.NaN()
	}
	mean := 0.0
	for _, pt := range points {
		mean += pt.Value
	}
	mean /= float64(len(points))
	var ssRes, ssTot float64
	for _, pt := range points {
		d := pt.Value - m.Predict(pt.Procs)
		ssRes += d * d
		t := pt.Value - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Prediction is one model output at a process count.
type Prediction struct {
	Procs int
	Value float64
}

// PredictRange evaluates the model at each process count, sorted.
func (m *ScalingModel) PredictRange(procs []int) []Prediction {
	out := make([]Prediction, 0, len(procs))
	for _, p := range procs {
		out = append(out, Prediction{Procs: p, Value: m.Predict(p)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Procs < out[j].Procs })
	return out
}

// ToPTdfExecName names the synthetic execution holding the prediction
// for one process count.
func ToPTdfExecName(prefix string, procs int) string {
	return fmt.Sprintf("%s-np%03d", prefix, procs)
}

// ToPTdf emits the predictions as performance results of a synthetic
// execution (one per process count) with tool "model", in a context of
// application + the given portable context resources. Loading these and
// aligning them with a real run by compare.Sets compares model to
// measurement directly.
func ToPTdf(app, execPrefix, metric, units string, context []core.ResourceName,
	preds []Prediction) []ptdf.Record {
	var recs []ptdf.Record
	recs = append(recs, ptdf.ApplicationRec{Name: app})
	appRes := core.ResourceName("/" + app)
	recs = append(recs, ptdf.ResourceRec{Name: appRes, Type: "application"})
	for _, pr := range preds {
		execName := ToPTdfExecName(execPrefix, pr.Procs)
		recs = append(recs, ptdf.ExecutionRec{Name: execName, App: app})
		execRes := core.ResourceName("/" + execName)
		recs = append(recs,
			ptdf.ResourceRec{Name: execRes, Type: "execution", Exec: execName},
			ptdf.ResourceAttributeRec{Resource: execRes, Attr: "number of processes",
				Value: fmt.Sprintf("%d", pr.Procs), AttrType: "string"},
			ptdf.ResourceAttributeRec{Resource: execRes, Attr: "predicted",
				Value: "true", AttrType: "string"},
		)
		ctx := append([]core.ResourceName{appRes}, context...)
		recs = append(recs, ptdf.PerfResultRec{
			Exec:   execName,
			Sets:   []ptdf.ResourceSet{{Names: ctx, Type: core.FocusPrimary}},
			Tool:   "model",
			Metric: metric,
			Value:  pr.Value,
			Units:  units,
		})
	}
	return recs
}
