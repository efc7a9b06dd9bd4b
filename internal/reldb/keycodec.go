package reldb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Order-preserving key encoding. EncodeKey maps a tuple of values to a byte
// string such that bytes.Compare on the encodings matches lexicographic
// Compare on the tuples. Keys whose order must be kept in a flat byte
// string — a partial index scan's matches, which it sorts — use it.
//
// Layout per value: one tag byte, then a kind-specific payload.
//
//	0x00           NULL (no payload)
//	0x01           INT: 8 bytes big-endian with the sign bit flipped
//	0x02           FLOAT: 8 bytes of order-adjusted IEEE-754 bits
//	0x03           STRING: escaped bytes terminated by 0x00 0x01
//	0x04           BOOL: one byte, 0 or 1
//
// Within strings, 0x00 is escaped to 0x00 0xFF so the terminator cannot
// appear in the payload. Integers and floats of different kinds do not
// inter-compare in the encoding; schema columns are homogeneous so index
// keys never mix them.
const (
	tagNull   = 0x00
	tagInt    = 0x01
	tagFloat  = 0x02
	tagString = 0x03
	tagBool   = 0x04
)

// ErrBadKey reports a malformed key encoding.
var ErrBadKey = errors.New("reldb: malformed key encoding")

// EncodeKey appends the order-preserving encoding of vals to dst and
// returns the extended slice.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = encodeValue(dst, v)
	}
	return dst
}

func encodeValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindInt:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i)^(1<<63))
		dst = append(dst, tagInt)
		return append(dst, buf[:]...)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], floatKeyBits(v.f))
		dst = append(dst, tagFloat)
		return append(dst, buf[:]...)
	case KindString:
		dst = append(dst, tagString)
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x01)
	case KindBool:
		dst = append(dst, tagBool)
		if v.b {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		panic(fmt.Sprintf("reldb: cannot encode kind %v", v.kind))
	}
}

// floatKeyBits maps a float to bits whose unsigned order is the codec's
// float order.
func floatKeyBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits // negative: flip all bits
	}
	return bits | 1<<63 // positive: flip sign bit
}

// keyOrder compares two values exactly as bytes.Compare orders their
// encodings, without encoding them: kind tag first (tags ascend with
// Kind), then payload. Blocks search their columns with it, so a block
// and an encoded key agree on every key's place.
func keyOrder(a, b Value) int {
	if a.kind != b.kind {
		return cmp.Compare(a.kind, b.kind)
	}
	switch a.kind {
	case KindInt:
		return cmp.Compare(a.i, b.i)
	case KindFloat:
		return cmp.Compare(floatKeyBits(a.f), floatKeyBits(b.f))
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		if a.b == b.b {
			return 0
		} else if b.b {
			return -1
		}
		return 1
	}
	return 0
}

// DecodeKey decodes all values from an encoding produced by EncodeKey.
func DecodeKey(key []byte) ([]Value, error) {
	var vals []Value
	for len(key) > 0 {
		v, rest, err := decodeValue(key)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		key = rest
	}
	return vals, nil
}

func decodeValue(key []byte) (Value, []byte, error) {
	if len(key) == 0 {
		return Value{}, nil, ErrBadKey
	}
	tag, key := key[0], key[1:]
	switch tag {
	case tagNull:
		return Null(), key, nil
	case tagInt:
		if len(key) < 8 {
			return Value{}, nil, ErrBadKey
		}
		u := binary.BigEndian.Uint64(key[:8]) ^ (1 << 63)
		return Int(int64(u)), key[8:], nil
	case tagFloat:
		if len(key) < 8 {
			return Value{}, nil, ErrBadKey
		}
		bits := binary.BigEndian.Uint64(key[:8])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), key[8:], nil
	case tagString:
		var out []byte
		for i := 0; i < len(key); i++ {
			c := key[i]
			if c != 0x00 {
				out = append(out, c)
				continue
			}
			if i+1 >= len(key) {
				return Value{}, nil, ErrBadKey
			}
			switch key[i+1] {
			case 0x01: // terminator
				return Str(string(out)), key[i+2:], nil
			case 0xFF: // escaped NUL
				out = append(out, 0x00)
				i++
			default:
				return Value{}, nil, ErrBadKey
			}
		}
		return Value{}, nil, ErrBadKey
	case tagBool:
		if len(key) < 1 {
			return Value{}, nil, ErrBadKey
		}
		// Only the canonical encodings 0 and 1 are valid, so every
		// decodable key re-encodes to the same bytes.
		switch key[0] {
		case 0:
			return Bool(false), key[1:], nil
		case 1:
			return Bool(true), key[1:], nil
		default:
			return Value{}, nil, ErrBadKey
		}
	default:
		return Value{}, nil, ErrBadKey
	}
}
