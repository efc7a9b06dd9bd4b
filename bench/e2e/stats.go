package main

import (
	"hash/fnv"
	"sort"
	"time"
)

// percentile returns the p'th percentile (0..100) of an ascending slice,
// interpolating linearly between the two closest ranks. It returns 0 for
// an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of an unsorted slice; 0 when empty.
func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// tailPercentile picks the highest percentile the sample supports with
// at least ten samples beyond it: p99 from 1000 samples up, else p90.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	return 90
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance check of this
// benchmark is computed with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrShare is the inter-quartile distance as a share of the median — the
// spread the benchmark's bounds are compared against.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	med := median(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// calibrate runs the fixed reference kernel — a single-threaded FNV-1a
// over an L2-resident buffer, passBytes per pass, so it measures the
// speed the host is giving one core right now and nothing about the
// program under test — three times and returns the fastest pass in
// milliseconds: a burst of stolen time shorter than a pass cannot fake a
// slow host, a slow host slows all three. Drift between two calls on an
// idle benchmark is host drift.
func calibrate(passBytes int) float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		h := fnv.New64a()
		start := time.Now()
		for n := 0; n < passBytes; n += len(buf) {
			h.Write(buf)
		}
		calibSink = h.Sum64()
		if d := float64(time.Since(start).Nanoseconds()) / 1e6; pass == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibSink keeps the compiler from discarding the kernel.
var calibSink uint64
