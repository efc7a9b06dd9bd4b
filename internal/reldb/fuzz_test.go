package reldb

import (
	"bytes"
	"testing"
)

// FuzzDecodeKey checks that arbitrary bytes never panic the key decoder,
// and that valid encodings round-trip with order preserved.
func FuzzDecodeKey(f *testing.F) {
	f.Add(EncodeKey(nil, Int(42), Str("x"), Float(1.5), Bool(true), Null()))
	f.Add([]byte{tagString, 0x00, 0x01})
	f.Add([]byte{tagInt, 1, 2, 3})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeKey(data)
		if err != nil {
			return
		}
		// Valid decodings must re-encode to the same bytes.
		re := EncodeKey(nil, vals...)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data)
		}
	})
}

// FuzzWALRecord checks that arbitrary bytes never panic the mutation
// decoder, and that a block record's claims of rows and column lengths
// cannot make it allocate beyond the record's bound.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeMutationPayload(&mutation{op: opDelete, table: "t", id: 1}))
	f.Add(encodeMutationPayload(&mutation{op: opCreateTable, schema: personSchema()}))
	f.Add([]byte{})
	for _, n := range []int{1, 9, 40} {
		b := &ColumnBlock{}
		b.reset(personSchema(), n)
		for i, row := range personRows(0, n) {
			row[0] = Int(int64(i))
			b.appendRow(int64(i+1), row)
		}
		f.Add(encodeMutationPayload(&mutation{op: opInsertBlock, table: "person", block: b, more: n == 9}))
	}
	f.Add(appendInts(putUvarint(putUvarint(append(putString([]byte{byte(opInsertBlock)}, "t"), 0), blockRecordCells+1), 1), 0, []int64{1, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMutationPayload(data)
		if err != nil {
			return
		}
		// Valid mutations re-encode and re-decode consistently.
		re := encodeMutationPayload(m)
		if _, err := decodeMutationPayload(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
