package server

// Pooled NDJSON line encoding for the streaming endpoints
// (/v1/results?stream=1, /v1/sql?stream=1). Each stream marshals its
// lines into one pooled buffer, reused for every line of a stream and
// across streams. The results stream also encodes one reused line: a
// row is copied into the stream's line (resultStream) and a pointer to
// it is encoded, so emitting one more row allocates nothing
// (TestStreamLinesAllocateNothing, BenchmarkResultsStreamEncode). The
// SQL stream reuses one row slice (BenchmarkSQLStreamEncode).

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"perftrack/internal/core"
)

// maxPooledEncodeBuf caps the buffer capacity returned to the pool, so
// one giant row does not pin its memory forever.
const maxPooledEncodeBuf = 64 << 10

// ndjsonEncoder writes one JSON line per Encode through a reused buffer.
type ndjsonEncoder struct {
	w   io.Writer
	buf *bytes.Buffer
	enc *json.Encoder
}

var ndjsonPool = sync.Pool{New: func() any {
	buf := new(bytes.Buffer)
	return &ndjsonEncoder{buf: buf, enc: json.NewEncoder(buf)}
}}

// newNDJSON borrows an encoder from the pool and points it at w.
// Callers must Release it when the stream ends.
func newNDJSON(w io.Writer) *ndjsonEncoder {
	e := ndjsonPool.Get().(*ndjsonEncoder)
	e.w = w
	return e
}

// Encode marshals v (with the trailing newline json.Encoder emits) into
// the reused buffer and writes it out as one line.
func (e *ndjsonEncoder) Encode(v any) error {
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	_, err := e.w.Write(e.buf.Bytes())
	return err
}

// Release returns the encoder to the pool, dropping oversized buffers.
func (e *ndjsonEncoder) Release() {
	e.w = nil
	if e.buf.Cap() > maxPooledEncodeBuf {
		e.buf = new(bytes.Buffer)
		e.enc = json.NewEncoder(e.buf)
	}
	ndjsonPool.Put(e)
}

// resultStream is one /v1/results stream's reused line.
type resultStream struct {
	enc  *ndjsonEncoder
	line ResultStreamLine
	row  ResultRow
	res  []core.ResourceName // the row's resources, before conversion
}

// send encodes one header, error or summary line.
func (rs *resultStream) send(line ResultStreamLine) error {
	rs.line = line
	return rs.enc.Encode(&rs.line)
}

// sendRow encodes pr as one row line. Its resources are
// PerformanceResult.AppendAllResources', gathered into the stream's
// reused slices.
func (rs *resultStream) sendRow(pr *core.PerformanceResult) error {
	rs.res = pr.AppendAllResources(rs.res[:0])
	names := rs.row.Resources[:0]
	for _, r := range rs.res {
		names = append(names, string(r))
	}
	rs.row = ResultRow{
		Execution: pr.Execution,
		Metric:    pr.Metric,
		Value:     pr.Value,
		Units:     pr.Units,
		Tool:      pr.Tool,
		Resources: names,
	}
	return rs.send(ResultStreamLine{APIVersion: APIVersion, Row: &rs.row})
}
