package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"perftrack/internal/reldb"
	"perftrack/internal/sqldb"
)

// discardRW is a ResponseWriter that throws the body away, so the
// benchmarks measure encoding, not transport.
type discardRW struct{ h http.Header }

func (d discardRW) Header() http.Header       { return d.h }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) WriteHeader(statusCode int)  {}

func benchResult(rows int) *sqldb.Result {
	res := &sqldb.Result{Columns: []string{"id", "metric", "value"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, reldb.Row{
			reldb.Int(int64(i)),
			reldb.Str(fmt.Sprintf("metric-%d", i%16)),
			reldb.Float(float64(i) * 0.25),
		})
	}
	return res
}

// BenchmarkSQLStreamEncode measures the pooled streaming encoder: one
// reused line buffer and one reused row slice per stream.
func BenchmarkSQLStreamEncode(b *testing.B) {
	s := &Server{}
	res := benchResult(1000)
	w := discardRW{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.streamSQL(w, res, SQLRequest{}, nil)
	}
}

// BenchmarkSQLStreamEncodeDirect is the pre-pool baseline: a fresh
// json.Encoder writing to the response and a fresh []any per row. The
// allocs/op delta against BenchmarkSQLStreamEncode is the satellite's
// acceptance evidence.
func BenchmarkSQLStreamEncodeDirect(b *testing.B) {
	res := benchResult(1000)
	w := discardRW{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := json.NewEncoder(w)
		enc.Encode(SQLStreamLine{APIVersion: APIVersion, Columns: res.Columns})
		for _, row := range res.Rows {
			enc.Encode(SQLStreamLine{APIVersion: APIVersion, Row: sqlRow(row)})
		}
		enc.Encode(SQLStreamLine{APIVersion: APIVersion, Done: true, Rows: len(res.Rows)})
	}
}

// BenchmarkResultsStreamEncode measures the /v1/results stream's line
// encoding: 1 000 rows through the handler's reused line.
func BenchmarkResultsStreamEncode(b *testing.B) {
	w := discardRW{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := &resultStream{enc: newNDJSON(w)}
		for j := 0; j < 1000; j++ {
			if err := rs.sendRow(streamResult); err != nil {
				b.Fatal(err)
			}
		}
		rs.enc.Release()
	}
}
