package reldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Write-ahead log and snapshot record codec. Every record is framed as
//
//	uint32 payload length (little endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload bytes
//
// so that a torn tail write is detected and discarded on recovery. Payloads
// use a compact binary encoding: varints for integers and lengths,
// length-prefixed strings, one tag byte per value kind.

// ErrCorruptLog reports a WAL or snapshot record that failed its checksum
// or could not be decoded.
var ErrCorruptLog = errors.New("reldb: corrupt log record")

type recordWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newRecordWriter(w io.Writer) *recordWriter {
	return &recordWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (rw *recordWriter) writeRecord(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := rw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := rw.w.Write(payload)
	return err
}

// writeFramed appends records that already carry their frames.
func (rw *recordWriter) writeFramed(records []byte) error {
	_, err := rw.w.Write(records)
	return err
}

func (rw *recordWriter) flush() error { return rw.w.Flush() }

type recordReader struct {
	r *bufio.Reader
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// readRecord returns the next payload. io.EOF marks a clean end; a partial
// or corrupt trailing record returns ErrCorruptLog so the caller can
// truncate there.
func (rr *recordReader) readRecord() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(rr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrCorruptLog
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > 1<<30 {
		return nil, ErrCorruptLog
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(rr.r, payload); err != nil {
		return nil, ErrCorruptLog
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrCorruptLog
	}
	return payload, nil
}

// --- payload encoding helpers ---

func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func putVarint(dst []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	return append(dst, buf[:n]...)
}

func putString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

type payloadReader struct {
	buf []byte
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		return 0, ErrCorruptLog
	}
	p.buf = p.buf[n:]
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.buf)
	if n <= 0 {
		return 0, ErrCorruptLog
	}
	p.buf = p.buf[n:]
	return v, nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(p.buf)) < n {
		return "", ErrCorruptLog
	}
	s := string(p.buf[:n])
	p.buf = p.buf[n:]
	return s, nil
}

func (p *payloadReader) byteVal() (byte, error) {
	if len(p.buf) == 0 {
		return 0, ErrCorruptLog
	}
	b := p.buf[0]
	p.buf = p.buf[1:]
	return b, nil
}

func (p *payloadReader) empty() bool { return len(p.buf) == 0 }

// --- value / row encoding ---

func encodeRowPayload(dst []byte, row Row) []byte {
	dst = putUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendValuePayload(dst, v)
	}
	return dst
}

func appendValuePayload(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case KindInt:
		dst = putVarint(dst, v.Int64())
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float64()))
	case KindString:
		dst = putString(dst, v.Text())
	case KindBool:
		if v.Truth() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func decodeRowPayload(p *payloadReader) (Row, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, ErrCorruptLog
	}
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		tag, err := p.byteVal()
		if err != nil {
			return nil, err
		}
		switch Kind(tag) {
		case KindNull:
			row = append(row, Null())
		case KindInt:
			v, err := p.varint()
			if err != nil {
				return nil, err
			}
			row = append(row, Int(v))
		case KindFloat:
			if len(p.buf) < 8 {
				return nil, ErrCorruptLog
			}
			bits := binary.LittleEndian.Uint64(p.buf[:8])
			p.buf = p.buf[8:]
			row = append(row, Float(math.Float64frombits(bits)))
		case KindString:
			s, err := p.str()
			if err != nil {
				return nil, err
			}
			row = append(row, Str(s))
		case KindBool:
			b, err := p.byteVal()
			if err != nil {
				return nil, err
			}
			row = append(row, Bool(b != 0))
		default:
			return nil, ErrCorruptLog
		}
	}
	return row, nil
}

// --- schema encoding ---

func encodeSchemaPayload(dst []byte, s *Schema) []byte {
	dst = putString(dst, s.Name)
	dst = putUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = putString(dst, c.Name)
		dst = append(dst, byte(c.Type))
		if c.Nullable {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = putUvarint(dst, uint64(len(s.PrimaryKey)))
	for _, pk := range s.PrimaryKey {
		dst = putString(dst, pk)
	}
	dst = putUvarint(dst, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		dst = putString(dst, fk.Column)
		dst = putString(dst, fk.RefTable)
		dst = putString(dst, fk.RefColumn)
	}
	dst = putUvarint(dst, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		dst = encodeIndexSpec(dst, ix)
	}
	return dst
}

func encodeIndexSpec(dst []byte, ix IndexSpec) []byte {
	dst = putString(dst, ix.Name)
	if ix.Unique {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = putUvarint(dst, uint64(len(ix.Columns)))
	for _, c := range ix.Columns {
		dst = putString(dst, c)
	}
	return dst
}

func decodeIndexSpec(p *payloadReader) (IndexSpec, error) {
	var ix IndexSpec
	var err error
	if ix.Name, err = p.str(); err != nil {
		return ix, err
	}
	u, err := p.byteVal()
	if err != nil {
		return ix, err
	}
	ix.Unique = u != 0
	n, err := p.uvarint()
	if err != nil {
		return ix, err
	}
	for i := uint64(0); i < n; i++ {
		c, err := p.str()
		if err != nil {
			return ix, err
		}
		ix.Columns = append(ix.Columns, c)
	}
	return ix, nil
}

func decodeSchemaPayload(p *payloadReader) (*Schema, error) {
	s := &Schema{}
	var err error
	if s.Name, err = p.str(); err != nil {
		return nil, err
	}
	ncols, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ncols; i++ {
		var c Column
		if c.Name, err = p.str(); err != nil {
			return nil, err
		}
		t, err := p.byteVal()
		if err != nil {
			return nil, err
		}
		c.Type = Kind(t)
		nb, err := p.byteVal()
		if err != nil {
			return nil, err
		}
		c.Nullable = nb != 0
		s.Columns = append(s.Columns, c)
	}
	npk, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < npk; i++ {
		pk, err := p.str()
		if err != nil {
			return nil, err
		}
		s.PrimaryKey = append(s.PrimaryKey, pk)
	}
	nfk, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nfk; i++ {
		var fk ForeignKey
		if fk.Column, err = p.str(); err != nil {
			return nil, err
		}
		if fk.RefTable, err = p.str(); err != nil {
			return nil, err
		}
		if fk.RefColumn, err = p.str(); err != nil {
			return nil, err
		}
		s.ForeignKeys = append(s.ForeignKeys, fk)
	}
	nix, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nix; i++ {
		ix, err := decodeIndexSpec(p)
		if err != nil {
			return nil, err
		}
		s.Indexes = append(s.Indexes, ix)
	}
	return s, nil
}

// --- mutation encoding ---

func encodeMutationPayload(m *mutation) []byte {
	dst := []byte{byte(m.op)}
	switch m.op {
	case opCreateTable:
		dst = encodeSchemaPayload(dst, m.schema)
	case opDropTable:
		dst = putString(dst, m.table)
	case opCreateIndex, opDropIndex:
		dst = putString(dst, m.table)
		dst = encodeIndexSpec(dst, m.index)
	case opInsert, opUpdate:
		dst = putString(dst, m.table)
		dst = putVarint(dst, m.id)
		dst = encodeRowPayload(dst, m.row)
	case opDelete:
		dst = putString(dst, m.table)
		dst = putVarint(dst, m.id)
	}
	return dst
}

func decodeMutationPayload(payload []byte) (*mutation, error) {
	p := &payloadReader{buf: payload}
	tag, err := p.byteVal()
	if err != nil {
		return nil, err
	}
	m := &mutation{op: mutOp(tag)}
	switch m.op {
	case opCreateTable:
		if m.schema, err = decodeSchemaPayload(p); err != nil {
			return nil, err
		}
	case opDropTable:
		if m.table, err = p.str(); err != nil {
			return nil, err
		}
	case opCreateIndex, opDropIndex:
		if m.table, err = p.str(); err != nil {
			return nil, err
		}
		if m.index, err = decodeIndexSpec(p); err != nil {
			return nil, err
		}
	case opInsert, opUpdate:
		if m.table, err = p.str(); err != nil {
			return nil, err
		}
		if m.id, err = p.varint(); err != nil {
			return nil, err
		}
		if m.row, err = decodeRowPayload(p); err != nil {
			return nil, err
		}
	case opDelete:
		if m.table, err = p.str(); err != nil {
			return nil, err
		}
		if m.id, err = p.varint(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrCorruptLog, tag)
	}
	return m, nil
}
