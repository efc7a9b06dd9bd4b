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

// Log and manifest record codec. Every record is framed as
//
//	uint32 payload length (little endian)
//	uint32 CRC-32 (IEEE) of the payload
//	payload bytes
//
// so that a torn tail write is detected and discarded on recovery. A
// payload starts with the op byte, the table's name and a flag, 1 when the
// next record continues the group; then come varints for integers and
// lengths, length-prefixed strings, one tag byte per value kind — except
// in a block record (opInsertBlock), which holds rows a commit inserts
// into one table as a segment body holds them:
//
//	row count (at most recordRows), column count, the row IDs as an
//	integer stream; per column its kind, its length and its column block
//	(a NULL flag or bitmap, then encodeColumn)
//
// A group is a run of records each flagged as continued but the last: a
// commit — per table its delete records and its block records, one unless
// the table's part has more rows than one may hold — a DDL statement, or
// the carry that starts a log file (rotateLocked). Recovery applies a
// group whole or not at all (replayFile).

// ErrCorruptLog reports a log record that failed its checksum
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

// flag reads a byte that must be 0 or 1.
func (p *payloadReader) flag() bool {
	b := p.byteVal()
	if b > 1 {
		p.fail()
	}
	return b == 1
}

func (p *payloadReader) empty() bool { return len(p.buf) == 0 }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// --- block encoding ---

// blockRecordCells bounds the cells, rows × columns, of one block record,
// and with them what decoding one allocates: integer streams of a constant
// stride take no bytes, so the payload's length alone does not. Under
// segments' bound of 2^30 rows a payload of a few dozen bytes could make
// the decoder allocate gigabytes; a document's largest table part, 4 096
// results of 6 columns, is 24 576 cells.
const blockRecordCells = 1 << 16

// recordRows is the most rows a block record of ncols columns holds.
func recordRows(ncols int) int { return max(blockRecordCells/max(ncols, 1), 1) }

// appendBlockRecords appends the block's rows to out as framed block
// records of table, each flagged as continued: one, unless it has more
// rows than one may hold. endGroup closes the group they end.
func appendBlockRecords(out []byte, table string, b *ColumnBlock) []byte {
	per := recordRows(len(b.cols))
	for from := 0; from < b.rows; from += per {
		part := b.view(from, min(from+per, b.rows))
		start := len(out)
		out = append(out, 0, 0, 0, 0, 0, 0, 0, 0, byte(opInsertBlock))
		out = appendBlockPayload(append(putString(out, table), 1), &part)
		payload := out[start+8:]
		binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(out[start+4:], crc32.ChecksumIEEE(payload))
	}
	return out
}

// endGroup makes the last record framed in buf[from:] the last of its
// group: it clears the record's continuation flag and checksums it again.
func endGroup(buf []byte, from int) {
	last := from
	for off := from; off < len(buf); off += 8 + int(binary.LittleEndian.Uint32(buf[off:])) {
		last = off
	}
	payload := buf[last+8:]
	p := &payloadReader{buf: payload[1:]}
	p.str()
	payload[len(payload)-len(p.buf)] = 0
	binary.LittleEndian.PutUint32(buf[last+4:], crc32.ChecksumIEEE(payload))
}

// appendBlockPayload writes what follows a block record's flag.
func appendBlockPayload(dst []byte, b *ColumnBlock) []byte {
	dst = putUvarint(putUvarint(dst, uint64(b.rows)), uint64(len(b.cols)))
	dst = appendIntVec(dst, &b.rowIDs)
	var col []byte
	for ci := range b.cols {
		col = appendColumnBlock(col[:0], &b.cols[ci])
		dst = append(putUvarint(append(dst, byte(b.cols[ci].kind)), uint64(len(col))), col...)
	}
	return dst
}

// wideZone is the zone a block record's integer columns are decoded under:
// any value, at width 8, as a tail holds them — or, consecutive, as a run.
var wideZone = zoneMap{valid: true, minI: math.MinInt64, maxI: math.MaxInt64}

// decodeBlockPayload reads what follows a block record's flag with the
// segment decoders, each stream checked against the bytes left before it
// allocates.
func decodeBlockPayload(p *payloadReader) *ColumnBlock {
	rows, ncols := p.uvarint(), p.count()
	if p.err != nil || rows == 0 || rows > uint64(recordRows(ncols)) {
		p.fail()
		return nil
	}
	b := &ColumnBlock{rows: int(rows), cols: make([]colVec, ncols), zones: make([]zoneMap, ncols)}
	var err error
	if b.rowIDs, p.buf, err = readIntVec(p.buf, b.rows, wideZone.minI, wideZone.maxI); err != nil {
		p.fail()
		return nil
	}
	for ci := range b.cols {
		kind := Kind(p.byteVal())
		data := p.bytes(p.count())
		if p.err != nil {
			return nil
		}
		if b.cols[ci], err = decodeColumn(kind, data, b.rows, wideZone); err != nil {
			p.fail()
			return nil
		}
	}
	return b
}

// --- schema encoding ---

// encodeSchemaPayload writes a schema but its name, which the record's
// table name is.
func encodeSchemaPayload(dst []byte, s *Schema) []byte {
	dst = putUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = putString(dst, c.Name)
		dst = append(dst, byte(c.Type), boolByte(c.Nullable))
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
	dst = append(putString(dst, ix.Name), boolByte(ix.Unique))
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

func decodeSchemaPayload(p *payloadReader, name string) (*Schema, error) {
	s := &Schema{Name: name}
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
	table := m.table
	if m.op == opCreateTable {
		table = m.schema.Name
	}
	dst := append(putString([]byte{byte(m.op)}, table), boolByte(m.more))
	switch m.op {
	case opCreateTable:
		dst = encodeSchemaPayload(dst, m.schema)
	case opCreateIndex, opDropIndex:
		dst = encodeIndexSpec(dst, m.index)
	case opDelete:
		dst = putVarint(dst, m.id)
	case opInsertBlock:
		dst = appendBlockPayload(dst, m.block)
	case opRotate:
		dst = putVarint(putVarint(dst, m.seq), m.size)
	}
	return dst
}

func decodeMutationPayload(payload []byte) (*mutation, error) {
	p := &payloadReader{buf: payload}
	m := &mutation{op: mutOp(p.byteVal()), table: p.str(), more: p.flag()}
	switch m.op {
	case opCreateTable:
		m.schema, _ = decodeSchemaPayload(p, m.table)
	case opCreateIndex, opDropIndex:
		m.index = decodeIndexSpec(p)
	case opDelete:
		m.id = p.varint()
	case opInsertBlock:
		m.block = decodeBlockPayload(p)
	case opRotate:
		m.seq, m.size = p.varint(), p.varint()
	default:
		if p.err == nil {
			return nil, fmt.Errorf("%w: unknown op %d", ErrCorruptLog, m.op)
		}
	}
	if p.err == nil && !p.empty() {
		p.fail()
	}
	if p.err != nil {
		return nil, p.err
	}
	return m, nil
}
