package datastore

import (
	"fmt"
	"math"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// AddHistogramResult stores a complex, histogram-valued performance
// result (§6 future work): one performance_result row carrying the mean
// over bins with data as its summary scalar, plus a result_histogram row
// holding every bin. NaN marks bins with no data. It returns the
// performance-result ID.
func (s *Store) AddHistogramResult(pr *core.PerformanceResult, binWidth float64, values []float64) (int64, error) {
	return s.writeID(func() (int64, error) { return s.addHistogramResultLocked(pr, binWidth, values, nil) })
}

// addHistogramResultLocked adds the result as addPerfResultLocked does,
// rs included, and its bins.
func (s *Store) addHistogramResultLocked(pr *core.PerformanceResult, binWidth float64, values []float64, rs *resolvedSet) (int64, error) {
	if binWidth <= 0 {
		return 0, fmt.Errorf("datastore: histogram bin width %g <= 0", binWidth)
	}
	if len(values) == 0 {
		return 0, fmt.Errorf("datastore: histogram has no bins")
	}
	sum, n := 0.0, 0
	for _, v := range values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	summary := math.NaN()
	if n > 0 {
		summary = sum / float64(n)
	} else {
		return 0, fmt.Errorf("datastore: histogram has no bins with data")
	}
	prCopy := *pr
	prCopy.Value = summary

	id, err := s.addPerfResultLocked(&prCopy, rs)
	if err != nil {
		return 0, err
	}
	_, err = s.tx.Insert("result_histogram", reldb.Row{
		reldb.Int(id),
		reldb.Float(binWidth),
		reldb.Int(int64(len(values))),
		reldb.Str(ptdf.FormatHistogramValues(values)),
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// HistogramOf fetches the bins of a histogram-valued result. ok is false
// when the result is an ordinary scalar.
func (s *Store) HistogramOf(resultID int64) (binWidth float64, values []float64, ok bool, err error) {
	tab, found := s.eng.Table("result_histogram")
	if !found {
		return 0, nil, false, fmt.Errorf("datastore: result_histogram table missing")
	}
	row, _, found := tab.GetByPK(reldb.Int(resultID))
	if !found {
		return 0, nil, false, nil
	}
	values, err = ptdf.ParseHistogramValues(row[3].Text())
	if err != nil {
		return 0, nil, false, err
	}
	return row[1].Float64(), values, true, nil
}

// HistogramCount reports how many results are histogram-valued.
func (s *Store) HistogramCount() int64 {
	tab, ok := s.eng.Table("result_histogram")
	if !ok {
		return 0
	}
	return int64(tab.Len())
}
