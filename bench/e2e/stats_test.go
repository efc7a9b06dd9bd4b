package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if tailPercentile(999) != 90 || tailPercentile(1000) != 99 {
		t.Error("tail percentile must be p90 below 1000 samples and p99 from there")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4): the acceptance check uses that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{1.5, 2.5, 2.5, 2.75, 3.25, 4.75}, 2.25, 2.625, 3.625},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1 (5.5 wide around a median of 5.5)", got)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}

func TestApportionIsExact(t *testing.T) {
	for _, n := range []int{6, 7, 100, 1425, 6000} {
		counts := apportion(interactiveMix, n)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != n {
			t.Errorf("apportion(%d) sums to %d", n, sum)
		}
	}
	got := apportion(interactiveMix, 6000)
	want := map[string]int{opCountHot: 1800, opCountCold: 600, opSQLHot: 1200, opSQLCold: 1200, opPage: 900, opAttrs: 300}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("apportion(6000)[%s] = %d, want %d", k, got[k], w)
		}
	}
}
