package datastore

import (
	"fmt"
	"math"

	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// loadHistogramLocked applies a complex, histogram-valued performance
// result (§6 future work): one performance_result row carrying the mean
// over bins with data as its summary scalar, applied as a staged result
// row, plus a result_histogram row holding every bin. NaN marks bins with
// no data. Callers hold s.wmu.
func (s *Store) loadHistogramLocked(b *Batch, r *ptdf.PerfHistogramRec, c *commitState) error {
	if r.BinWidth <= 0 {
		return fmt.Errorf("datastore: histogram bin width %g <= 0: %w", r.BinWidth, ErrBadSpec)
	}
	sum, n := 0.0, 0
	for _, v := range r.Values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("datastore: histogram has no bins with data: %w", ErrBadSpec)
	}
	row := b.rowOf(r.Sets, r.Exec, r.Tool, r.Metric, r.Units, sum/float64(n))
	id, err := s.loadResultLocked(b, &row, c)
	if err != nil {
		return err
	}
	_, err = s.tx.Insert("result_histogram", reldb.Row{
		reldb.Int(id),
		reldb.Float(r.BinWidth),
		reldb.Int(int64(len(r.Values))),
		reldb.Str(ptdf.FormatHistogramValues(r.Values)),
	})
	return err
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
