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

// Log, manifest and legacy snapshot record codec. Every record is framed as
//
//	uint32 payload length (little endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload bytes
//
// so that a torn tail write is detected and discarded on recovery. Payloads
// use a compact binary encoding: varints for integers and lengths,
// length-prefixed strings, one tag byte per value kind.

// ErrCorruptLog reports a log or snapshot record that failed its checksum
// or could not be decoded.
var ErrCorruptLog = errors.New("reldb: corrupt log record")

// appendFrame appends the frame header of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// appendRecord appends payload to dst as one framed record.
func appendRecord(dst, payload []byte) []byte {
	return append(appendFrame(dst, payload), payload...)
}

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

func putUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func putVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

func putString(dst []byte, s string) []byte {
	dst = putUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// payloadReader decodes a payload. Its first failure sticks: every later
// read returns a zero value, and err is ErrCorruptLog.
type payloadReader struct {
	buf []byte
	err error
}

func (p *payloadReader) fail() {
	p.buf, p.err = nil, ErrCorruptLog
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.buf)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

// count reads the length of what follows: as many items, each taking at
// least a byte of what is left.
func (p *payloadReader) count() int {
	n := p.uvarint()
	if n > uint64(len(p.buf)) {
		p.fail()
		return 0
	}
	return int(n)
}

// bytes reads the next n bytes.
func (p *payloadReader) bytes(n int) []byte {
	if n > len(p.buf) {
		p.fail()
		return nil
	}
	b := p.buf[:n]
	p.buf = p.buf[n:]
	return b
}

func (p *payloadReader) str() string { return string(p.bytes(p.count())) }

func (p *payloadReader) byteVal() byte {
	if b := p.bytes(1); b != nil {
		return b[0]
	}
	return 0
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
	row := make(Row, p.count())
	for i := range row {
		switch Kind(p.byteVal()) {
		case KindNull:
		case KindInt:
			row[i] = Int(p.varint())
		case KindFloat:
			if b := p.bytes(8); b != nil {
				row[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		case KindString:
			row[i] = Str(p.str())
		case KindBool:
			row[i] = Bool(p.byteVal() != 0)
		default:
			p.fail()
		}
	}
	return row, p.err
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

func decodeIndexSpec(p *payloadReader) IndexSpec {
	ix := IndexSpec{Name: p.str(), Unique: p.byteVal() != 0}
	for n := p.count(); n > 0; n-- {
		ix.Columns = append(ix.Columns, p.str())
	}
	return ix
}

func decodeSchemaPayload(p *payloadReader) (*Schema, error) {
	s := &Schema{Name: p.str()}
	for n := p.count(); n > 0; n-- {
		s.Columns = append(s.Columns, Column{Name: p.str(), Type: Kind(p.byteVal()), Nullable: p.byteVal() != 0})
	}
	for n := p.count(); n > 0; n-- {
		s.PrimaryKey = append(s.PrimaryKey, p.str())
	}
	for n := p.count(); n > 0; n-- {
		s.ForeignKeys = append(s.ForeignKeys, ForeignKey{Column: p.str(), RefTable: p.str(), RefColumn: p.str()})
	}
	for n := p.count(); n > 0; n-- {
		s.Indexes = append(s.Indexes, decodeIndexSpec(p))
	}
	if p.err != nil {
		return nil, p.err
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
	m := &mutation{op: mutOp(p.byteVal())}
	switch m.op {
	case opCreateTable:
		m.schema, _ = decodeSchemaPayload(p)
	case opDropTable:
		m.table = p.str()
	case opCreateIndex, opDropIndex:
		m.table, m.index = p.str(), decodeIndexSpec(p)
	case opInsert, opUpdate:
		m.table, m.id = p.str(), p.varint()
		m.row, _ = decodeRowPayload(p)
	case opDelete:
		m.table, m.id = p.str(), p.varint()
	default:
		if p.err == nil {
			return nil, fmt.Errorf("%w: unknown op %d", ErrCorruptLog, m.op)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
}
