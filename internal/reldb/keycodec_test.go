package reldb

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	tuples := [][]Value{
		{},
		{Null()},
		{Int(0)},
		{Int(-1), Int(1)},
		{Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(-0.0), Float(math.Inf(1)), Float(math.Inf(-1))},
		{Str(""), Str("a"), Str("with\x00nul"), Str("\x00\x00")},
		{Bool(true), Bool(false)},
		{Str("mixed"), Int(5), Float(2.5), Bool(true), Null()},
	}
	for _, tuple := range tuples {
		enc := EncodeKey(nil, tuple...)
		dec, err := DecodeKey(enc)
		if err != nil {
			t.Fatalf("DecodeKey(%x): %v", enc, err)
		}
		if len(dec) != len(tuple) {
			t.Fatalf("round trip %v: got %v", tuple, dec)
		}
		for i := range tuple {
			// -0.0 and 0.0 compare equal; that is acceptable.
			if Compare(dec[i], tuple[i]) != 0 {
				t.Errorf("round trip %v: index %d got %v", tuple, i, dec[i])
			}
		}
	}
}

func TestKeyOrderPreservingInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, Int(a))
		kb := EncodeKey(nil, Int(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Int(a), Int(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, Float(a))
		kb := EncodeKey(nil, Float(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Float(a), Float(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, Str(a))
		kb := EncodeKey(nil, Str(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Str(a), Str(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderPreservingTuples(t *testing.T) {
	f := func(a1 string, a2 int64, b1 string, b2 int64) bool {
		ka := EncodeKey(nil, Str(a1), Int(a2))
		kb := EncodeKey(nil, Str(b1), Int(b2))
		want := Compare(Str(a1), Str(b1))
		if want == 0 {
			want = Compare(Int(a2), Int(b2))
		}
		return sign(bytes.Compare(ka, kb)) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyStringPrefixOrdering(t *testing.T) {
	// "ab" < "ab\x00" < "abc" must hold in the encoding too.
	ks := [][]byte{
		EncodeKey(nil, Str("ab")),
		EncodeKey(nil, Str("ab\x00")),
		EncodeKey(nil, Str("abc")),
	}
	for i := 0; i < len(ks)-1; i++ {
		if bytes.Compare(ks[i], ks[i+1]) >= 0 {
			t.Errorf("key %d not < key %d", i, i+1)
		}
	}
}

func TestKeyStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		dec, err := DecodeKey(EncodeKey(nil, Str(s)))
		return err == nil && len(dec) == 1 && dec[0].Text() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyNullSortsFirstEncoded(t *testing.T) {
	null := EncodeKey(nil, Null())
	for _, v := range []Value{Int(math.MinInt64), Float(math.Inf(-1)), Str(""), Bool(false)} {
		if bytes.Compare(null, EncodeKey(nil, v)) >= 0 {
			t.Errorf("encoded NULL should sort before %v", v)
		}
	}
}

func TestDecodeKeyMalformed(t *testing.T) {
	bad := [][]byte{
		{tagInt},                // truncated int
		{tagFloat, 1, 2, 3},     // truncated float
		{tagString, 'a'},        // unterminated string
		{tagString, 0x00},       // truncated escape
		{tagString, 0x00, 0x02}, // invalid escape
		{tagBool},               // truncated bool
		{0x77},                  // unknown tag
	}
	for _, enc := range bad {
		if _, err := DecodeKey(enc); err == nil {
			t.Errorf("DecodeKey(%x) should fail", enc)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}
